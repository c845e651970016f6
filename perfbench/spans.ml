(* Per-layer self time from the span ring. *)

module Trace = Hfad_trace.Trace

(* The layers reported, whichever workload runs. *)
let layers =
  [
    "server"; "fs"; "flusher"; "index"; "pathcache"; "posix"; "osd"; "btree";
    "pager"; "journal"; "device";
  ]

(* A span that wraps out of the ring is lost to the self-time sums, so
   a traced window ends early once the ring is half full; the other
   half holds the spans of ops still in flight. *)
let ring_capacity = 1 lsl 20
let window_full occupancy = occupancy >= ring_capacity / 2

(* Spans ever recorded in this process (the tracer's own counter). *)
let recorded_total () =
  Hfad_metrics.(Counter.get (Registry.counter Registry.global "trace.spans"))

let start () =
  Trace.configure ~ring_capacity ();
  Trace.clear ();
  Trace.set_enabled true;
  recorded_total ()

type summary = {
  self_ns : (string * int) list;  (* every layer seen, by name *)
  recorded : int;
  dropped : int;  (* recorded in the window but no longer in the ring *)
  durations : (string * float list) list;  (* "layer.op" -> µs, on request *)
}

(* Stop recording and summarize what the ring holds. [ops] names the
   "layer.op" spans whose durations the caller wants back. *)
let stop ?(ops = []) ~since () =
  Trace.set_enabled false;
  let spans = Trace.spans () in
  let durations =
    List.map
      (fun key ->
        ( key,
          List.filter_map
            (fun (s : Trace.span) ->
              if s.layer ^ "." ^ s.op = key then Some (float_of_int s.dur_ns /. 1e3)
              else None)
            spans ))
      ops
  in
  let summary =
    {
      self_ns = Trace.self_time_by_layer spans;
      recorded = List.length spans;
      dropped = recorded_total () - since - List.length spans;
      durations;
    }
  in
  Trace.clear ();
  summary

let self_ns s layer = Option.value ~default:0 (List.assoc_opt layer s.self_ns)
