(* What one run measured, and the line the benchmark ends with. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type t = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (* whole-run output checks *)
  end_to_end : metric list;
  detail : metric list;  (* per-op-class end-to-end figures, printed only *)
  layers : metric list;
}

(* Every per-layer metric, in BENCHMARK.json's order. A layer the
   workload never enters reads 0. *)
let layer_names =
  [
    ("server.execute_p50_us.put", "us"); ("server.execute_p50_us.get", "us");
    ("server.execute_p50_us.search", "us"); ("server.avg_batch", "count");
    ("server.bytes_out_per_op", "B/op"); ("wire.transport_p50_us", "us");
    ("server.busy", "count"); ("flusher.ack_wait_p50_us", "us");
    ("flusher.commit_p50_us", "us"); ("flusher.commits_per_put", "ratio");
    ("flusher.batch_pages_avg", "pages"); ("fs.rwlock_shared_waits_per_op", "1/op");
    ("fs.rwlock_exclusive_waits_per_op", "1/op"); ("index.lookups_per_op", "1/op");
    ("index.queries_per_op", "1/op"); ("btree.descents_per_op", "1/op");
    ("btree.nodes_visited_per_op", "1/op"); ("gc.minor_words_per_op", "words/op");
    ("gc.minor_collections_per_kop", "1/kop"); ("gc.major_collections", "count");
    ("pager.hit_ratio", "ratio"); ("pager.misses_per_op", "1/op");
    ("pager.evictions_per_op", "1/op"); ("pager.lock_waits_per_op", "1/op");
    ("journal.commits_per_put", "ratio"); ("device.writes_per_commit", "1/commit");
    ("device.bytes_written_per_user_byte", "ratio");
    ("osd.bytes_written_per_put", "B/put"); ("device.reads_per_op", "1/op");
    ("device.model_ms_per_op", "ms/op"); ("pathcache.hit_ratio", "ratio");
    ("posix.resolve_p50_us", "us");
  ]
  @ List.map
      (fun l -> ("self_us_per_op." ^ l, "us/op"))
      Spans.layers
  @ [ ("trace.dropped_spans", "count"); ("trace.overhead_frac", "ratio") ]

let end_to_end_names =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_p50_us", "us"); ("heap_peak_mb", "MB");
  ]

(* Lay [given] out over [names], filling gaps with 0. *)
let complete names given =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) given with
      | Some x -> x
      | None -> m name unit_ 0.0)
    names

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun x ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value x.unit_)
       ms)

(* Per op class: the median, the sample count, and the highest tail
   with at least ten samples beyond it. *)
let class_metrics classes =
  List.concat_map
    (fun (name, s) ->
      let n = List.length s in
      m (name ^ "_p50_us") "us" (Stat.median s)
      :: m (name ^ "_n") "count" (float_of_int n)
      ::
      (match Stat.tail_quantile n with
      | Some q -> [ m (Printf.sprintf "%s_p%.0f_us" name (q *. 100.)) "us" (Stat.percentile q s) ]
      | None -> []))
    classes

let correct r = r.failed = 0 && List.for_all snd r.checks

(* Human-readable lines first, the JSON result line last. *)
let print ~trace r =
  let line x = Printf.printf "  %-40s %14.3f %s\n" x.name x.value x.unit_ in
  Printf.printf "attempted %d, failed %d, failed_frac %.6f\n" r.attempted
    r.failed (Stat.per r.failed (max 1 r.attempted));
  List.iter
    (fun (name, ok) -> Printf.printf "check %-38s %s\n" name (if ok then "ok" else "FAILED"))
    r.checks;
  print_endline "end-to-end:";
  List.iter line r.end_to_end;
  print_endline "per op class:";
  List.iter line r.detail;
  if trace then begin
    print_endline "per layer:";
    List.iter line r.layers
  end;
  let metrics =
    if trace then complete layer_names r.layers
    else complete end_to_end_names r.end_to_end
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (correct r) (max 1 r.attempted) r.failed (json_metrics metrics)
