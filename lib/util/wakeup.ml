type t = { r : Unix.file_descr; w : Unix.file_descr }

let create () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  { r; w }

let fd t = t.r
let byte = Bytes.make 1 '!'

let signal t =
  try ignore (Unix.single_write t.w byte 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()

let drain t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

let wait t ~timeout =
  (* [select] reads a negative timeout as "no limit". *)
  let timeout = match timeout with None -> -1.0 | Some s -> Float.max 0.0 s in
  (match Unix.select [ t.r ] [] [] timeout with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  drain t

let close t =
  (try Unix.close t.r with Unix.Unix_error _ -> ());
  try Unix.close t.w with Unix.Unix_error _ -> ()
