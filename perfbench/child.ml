(* The server under test, in a process of its own.

   [serve] is the child's side: it opens a saved image, starts the
   shipped server with its default configuration, and then takes
   line commands on stdin, answering on stdout:

     mark      start a measurement window (snapshot the counters below)
     trace     record spans from here on
     spans     the number of spans the ring holds
     report    one "report k=v ..." line: deltas since [mark] of
               Gc.quick_stat, Device.stats, Pager.stats and
               Rwlock.stats, the heap peak, and span self time when
               [trace] was given
     stop      stop the server, save the image as the device holds it
               (recovery on reopen replays the journal), close, exit

   [spawn] / [command] / [stop] are the benchmark's side. *)

module Device = Hfad_blockdev.Device
module Latency = Hfad_blockdev.Latency
module Fs = Hfad.Fs
module Server = Hfad_server.Server

let serve image =
  let dev = Device.load ~model:Latency.default_ssd image in
  let fs = Fs.open_existing_exn dev in
  let server = Server.start ~config:Server.Config.default fs in
  Printf.printf "ready %d\n%!" (Server.port server);
  let base = ref (Common.read_counters fs) and traced = ref None in
  let rec loop () =
    match input_line stdin with
    | "mark" ->
        base := Common.read_counters fs;
        print_endline "ok";
        loop ()
    | "trace" ->
        traced := Some (Spans.start ());
        print_endline "ok";
        loop ()
    | "spans" ->
        print_endline (string_of_int (Hfad_trace.Trace.ring_occupancy ()));
        loop ()
    | "report" ->
        let fields =
          Common.counter_deltas !base (Common.read_counters fs)
          @ (match !traced with
            | Some since -> Common.span_fields (Spans.stop ~since ())
            | None -> [])
        in
        traced := None;
        print_endline
          ("report "
          ^ String.concat " "
              (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) fields));
        loop ()
    | _ | (exception End_of_file) -> ()
  in
  loop ();
  Server.stop server;
  Device.save dev image;
  Fs.close fs;
  print_endline "stopped"

(* --- the benchmark's side ---------------------------------------------- *)

type t = { pid : int; to_child : out_channel; from_child : in_channel; port : int }

let port t = t.port

let spawn image =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve"; image |]
      child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  let to_child = Unix.out_channel_of_descr to_child in
  let from_child = Unix.in_channel_of_descr from_child in
  match String.split_on_char ' ' (input_line from_child) with
  | [ "ready"; port ] -> { pid; to_child; from_child; port = int_of_string port }
  | _ -> failwith "server child did not start"

let command t cmd =
  output_string t.to_child (cmd ^ "\n");
  flush t.to_child;
  input_line t.from_child

let mark t = ignore (command t "mark")
let trace t = ignore (command t "trace")
let ring_occupancy t = int_of_string (command t "spans")

(* The child's "report" line as named numbers. *)
let report t =
  match String.split_on_char ' ' (command t "report") with
  | "report" :: fields ->
      List.filter_map
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
              Some
                ( String.sub kv 0 i,
                  float_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) )
          | None -> None)
        fields
  | _ -> failwith "server child sent no report"

(* Stop the child and wait for it; true when it saved and exited 0. *)
let stop t =
  let saved = try command t "stop" = "stopped" with End_of_file | Sys_error _ -> false in
  close_out_noerr t.to_child;
  close_in_noerr t.from_child;
  match Unix.waitpid [] t.pid with
  | _, Unix.WEXITED 0 -> saved
  | _ -> false
