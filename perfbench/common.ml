(* The serving process's counters over a window, and the metrics both
   workload kinds derive from them the same way (plus span self time
   from a traced window). *)

module Device = Hfad_blockdev.Device
module Pager = Hfad_pager.Pager
module Osd = Hfad_osd.Osd
module Rwlock = Hfad_util.Rwlock
module Fs = Hfad.Fs

type counters = {
  gc : Gc.stat;
  dev : Device.stats;
  pager : Pager.stats;
  lock : Rwlock.stats;
}

let read_counters fs =
  {
    gc = Gc.quick_stat ();
    dev = Device.stats (Fs.device fs);
    pager = Pager.stats (Osd.pager (Fs.osd fs));
    lock = Rwlock.stats (Fs.rwlock fs);
  }

(* Counter growth from [a] to [b] as named numbers: the server child
   reports these, and the naming workload reads them in process. *)
let counter_deltas a b =
  let i x = float_of_int x in
  [
    ("gc.minor_words", b.gc.Gc.minor_words -. a.gc.Gc.minor_words);
    ("gc.minor_collections", i (b.gc.Gc.minor_collections - a.gc.Gc.minor_collections));
    ("gc.major_collections", i (b.gc.Gc.major_collections - a.gc.Gc.major_collections));
    ("gc.top_heap_words", i b.gc.Gc.top_heap_words);
    ("device.reads", i (b.dev.Device.reads - a.dev.Device.reads));
    ("device.writes", i (b.dev.Device.writes - a.dev.Device.writes));
    ("device.bytes_written", i (b.dev.Device.bytes_written - a.dev.Device.bytes_written));
    ("device.simulated_ns", i (b.dev.Device.simulated_ns - a.dev.Device.simulated_ns));
    ("pager.reads", i (b.pager.Pager.reads - a.pager.Pager.reads));
    ("pager.hits", i (b.pager.Pager.hits - a.pager.Pager.hits));
    ("pager.misses", i (b.pager.Pager.misses - a.pager.Pager.misses));
    ("pager.evictions", i (b.pager.Pager.evictions - a.pager.Pager.evictions));
    ("pager.lock_waits", i (b.pager.Pager.lock_waits - a.pager.Pager.lock_waits));
    ("rwlock.shared_waits", i (b.lock.Rwlock.shared_waits - a.lock.Rwlock.shared_waits));
    ( "rwlock.exclusive_waits",
      i (b.lock.Rwlock.exclusive_waits - a.lock.Rwlock.exclusive_waits) );
  ]

let span_fields (s : Spans.summary) =
  ("trace.recorded", float_of_int s.Spans.recorded)
  :: ("trace.dropped", float_of_int s.Spans.dropped)
  :: List.map
       (fun l -> ("self_ns." ^ l, float_of_int (Spans.self_ns s l)))
       Spans.layers

let field counters name = Option.value ~default:0.0 (List.assoc_opt name counters)

let heap_mb counters =
  field counters "gc.top_heap_words" *. float_of_int (Sys.word_size / 8) /. 1e6

let end_to_end ~setup_s ~ops_per_s ~op_p50 counters =
  Report.
    [
      m "setup_s" "s" setup_s;
      m "ops_per_s" "1/s" ops_per_s;
      m "op_p50_us" "us" op_p50;
      m "heap_peak_mb" "MB" (heap_mb counters);
    ]

(* How the measured window's figures stood before the conversion to
   reference-host time, and the slowdown that converted them. *)
let host_detail host samples ~raw_wall =
  Report.
    [
      m "host.slowdown" "x" (Host.slowdown host);
      m "raw_ops_per_s" "1/s" (Stat.ratio (float_of_int (Samples.length samples)) raw_wall);
      m "raw_op_p50_us" "us" (Stat.median (Samples.latencies ~raw:true samples));
    ]

(* Layer metrics from the serving process's own counters ([counters])
   and from two registry snapshots around the same window. *)
let process_layers ~ops counters a b =
  let f = field counters in
  let per_op x = Stat.ratio x (float_of_int ops) in
  let d name = Stat.per (Stat.delta a b name) ops in
  Report.
    [
      m "fs.rwlock_shared_waits_per_op" "1/op" (per_op (f "rwlock.shared_waits"));
      m "fs.rwlock_exclusive_waits_per_op" "1/op" (per_op (f "rwlock.exclusive_waits"));
      m "index.lookups_per_op" "1/op" (d "index.lookups");
      m "index.queries_per_op" "1/op" (d "index.queries");
      m "btree.descents_per_op" "1/op" (d "btree.descents");
      m "btree.nodes_visited_per_op" "1/op" (d "btree.nodes_visited");
      m "gc.minor_words_per_op" "words/op" (per_op (f "gc.minor_words"));
      m "gc.minor_collections_per_kop" "1/kop" (1000. *. per_op (f "gc.minor_collections"));
      m "gc.major_collections" "count" (f "gc.major_collections");
      m "pager.hit_ratio" "ratio" (Stat.ratio (f "pager.hits") (f "pager.reads"));
      m "pager.misses_per_op" "1/op" (per_op (f "pager.misses"));
      m "pager.evictions_per_op" "1/op" (per_op (f "pager.evictions"));
      m "pager.lock_waits_per_op" "1/op" (per_op (f "pager.lock_waits"));
      m "device.reads_per_op" "1/op" (per_op (f "device.reads"));
      m "device.model_ms_per_op" "ms/op" (per_op (f "device.simulated_ns" /. 1e6));
    ]

(* A traced run is correct only if the ring kept every span, since lost
   spans would make the self-time figures read low. *)
let trace_checks = function
  | None -> []
  | Some dropped -> [ ("trace.dropped_spans = 0", dropped = 0.0) ]

(* [traced] is the traced window's counters, op count and ops/s. *)
let trace_layers ~ops_per_s = function
  | None -> []
  | Some (counters, ops, traced_ops_per_s) ->
      let f = field counters in
      List.map
        (fun l ->
          Report.m ("self_us_per_op." ^ l) "us/op"
            (Stat.ratio (f ("self_ns." ^ l) /. 1e3) (float_of_int ops)))
        Spans.layers
      @ Report.
          [
            m "trace.dropped_spans" "count" (f "trace.dropped");
            m "trace.overhead_frac" "ratio" (1. -. Stat.ratio traced_ops_per_s ops_per_s);
          ]
