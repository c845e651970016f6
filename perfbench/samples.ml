(* The ops of one measured window: latency and op class of each, kept
   unboxed so that recording them costs the measured process next to
   no allocation, and the host's slowdown over each slice of the window
   (see Host). *)

type t = {
  mutable n : int;
  mutable us : Float.Array.t;  (* latency as measured, microseconds *)
  mutable cls : Bytes.t;  (* op class, a small integer *)
  mutable slices : (int * float) list;  (* (first op, slowdown), latest first *)
}

let create () = { n = 0; us = Float.Array.create 4096; cls = Bytes.create 4096; slices = [] }

let add t ~us cls =
  let cap = Float.Array.length t.us in
  if t.n = cap then begin
    t.us <- Float.Array.append t.us (Float.Array.create cap);
    t.cls <- Bytes.extend t.cls 0 cap
  end;
  Float.Array.set t.us t.n us;
  Bytes.set t.cls t.n (Char.chr cls);
  t.n <- t.n + 1

let length t = t.n

(* Ops [from] onwards ran in a slice with slowdown [s]. *)
let set_slowdown t ~from s = t.slices <- (from, s) :: t.slices

(* Latencies in reference-host microseconds, or as measured with [~raw].
   Ops of no slice count as measured. *)
let latencies ?cls ?(raw = false) t =
  let rec go i slices acc =
    if i < 0 then acc
    else
      match slices with
      | (from, _) :: rest when from > i -> go i rest acc
      | _ ->
          let keep = match cls with None -> true | Some c -> Char.code (Bytes.get t.cls i) = c in
          let s = match slices with (_, s) :: _ when not raw -> s | _ -> 1.0 in
          go (i - 1) slices (if keep then (Float.Array.get t.us i /. s) :: acc else acc)
  in
  go (t.n - 1) t.slices []

let count ?cls t = List.length (latencies ?cls t)

let merge ts =
  let all = create () in
  List.iter
    (fun t ->
      all.slices <-
        List.map (fun (from, s) -> (all.n + from, s)) t.slices @ ((all.n, 1.0) :: all.slices);
      for i = 0 to t.n - 1 do
        add all ~us:(Float.Array.get t.us i) (Char.code (Bytes.get t.cls i))
      done)
    ts;
  all

(* Throughput and median latency of a window of [wall] seconds, over
   the whole window, so that a stall anywhere in it counts. *)
let end_to_end t ~wall =
  if t.n = 0 then (0.0, 0.0) else (float_of_int t.n /. wall, Stat.median (latencies t))
