(* W1 — the write pipeline: what group commit buys.

   The paper's native API decouples mutation from durability: an
   operation returns once the in-memory state is updated, and a single
   journaled checkpoint later makes a whole batch durable. The journal's
   fixed cost per checkpoint (descriptor + seal + superblock writes,
   plus the full dirty-set double-write) is then amortized over every
   operation in the batch instead of being paid per operation.

   This experiment drives a sustained stream of small scattered
   overwrites through two durability disciplines:

   - per-op checkpoint ([Config.sync_writes = true]): every mutation is
     durable before the call returns — the POSIX-ish fsync-per-write
     worst case;
   - group commit: the asynchronous pipeline at several
     [batch_max_pages] thresholds, with one {!Fs.sync} at the end.

   Acceptance: group commit must beat per-op checkpointing on ops/s and
   device writes/op at EVERY threshold. Commit-latency and batch-size
   distributions are read back out of the [fs.pipeline.*] histograms in
   the metrics registry. *)

module Device = Hfad_blockdev.Device
module Fs = Hfad.Fs
open Bench_util

let block_size = 4096
let blocks = 65536
let journal_pages = 2048
let object_count = 16
let object_bytes = 64 * 1024
let write_bytes = 256
let payload = String.make write_bytes 'w'

let target =
  Workload.scatter_target ~objects:object_count ~object_bytes ~write_bytes

let config ?(sync_writes = false) ?(batch_max_pages = 256) () =
  Fs.Config.v ~cache_pages:16384 ~index_mode:Fs.Off ~journal_pages
    ~sync_writes ~batch_max_pages ~batch_max_age:3600.0 ()

(* Freshly checkpointed instance: [object_count] objects of
   [object_bytes], device stats zeroed so only the measured stream
   counts. *)
let build config =
  let dev = Device.create ~block_size ~blocks () in
  let fs = Fs.format ~config dev in
  let oids =
    Array.init object_count (fun i ->
        Fs.create_exn fs
          ~content:(String.make object_bytes (Char.chr (97 + i))))
  in
  Fs.sync_exn ~mode:`Checkpoint fs;
  Device.reset_stats dev;
  (dev, fs, oids)

type measured = {
  label : string;
  ops : int;
  ms : float;
  dev_writes : int;
  commits : int;
  commit_us_mean : float;
  commit_us_p95 : int;
  batch_ops_mean : float;
}

(* The pipeline histograms are process-global and accumulate across
   runs, so each run is summarized from the registry {e delta} it
   produced: per-bucket deltas are enough to recover mean and an upper
   bound on the p95. *)
let hist_mean deltas name =
  let c = counter deltas (name ^ ".count") in
  if c = 0 then 0.0 else float_of_int (counter deltas (name ^ ".sum")) /. float_of_int c

let hist_p95 deltas name =
  let prefix = name ^ ".le_" in
  let buckets =
    List.filter_map
      (fun (k, v) ->
        if String.starts_with ~prefix k && v > 0 then
          let tail =
            String.sub k (String.length prefix)
              (String.length k - String.length prefix)
          in
          Some ((if tail = "inf" then max_int else int_of_string tail), v)
        else None)
      deltas
    |> List.sort compare
  in
  let total = List.fold_left (fun a (_, v) -> a + v) 0 buckets in
  if total = 0 then 0
  else begin
    let need = int_of_float (ceil (0.95 *. float_of_int total)) in
    let rec walk acc = function
      | [] -> 0
      | (bound, v) :: rest ->
          if acc + v >= need then bound else walk (acc + v) rest
    in
    walk 0 buckets
  end

let measure ~label ~ops config =
  let dev, fs, oids = build config in
  Fs.start_pipeline fs;
  let ms, deltas =
    let (_, ms), deltas =
      counters_of (fun () ->
          time_ms (fun () ->
              for i = 0 to ops - 1 do
                let obj, off = target i in
                Fs.write_exn fs oids.(obj) ~off payload;
                (* Without an occasional yield the producer monopolizes
                   the OCaml runtime lock and the daemon only ever sees
                   the barrier — real streams have inter-arrival gaps. *)
                if i land 63 = 63 then Thread.yield ()
              done;
              Fs.sync_exn fs))
    in
    (ms, deltas)
  in
  let commits = counter deltas "fs.pipeline.commits" in
  Fs.stop_pipeline fs;
  {
    label;
    ops;
    ms;
    dev_writes = (Device.stats dev).Device.writes;
    commits;
    commit_us_mean = hist_mean deltas "fs.pipeline.commit_latency_us";
    commit_us_p95 = hist_p95 deltas "fs.pipeline.commit_latency_us";
    batch_ops_mean = hist_mean deltas "fs.pipeline.batch_ops";
  }

let ops_per_s m = if m.ms <= 0.0 then 0.0 else float_of_int m.ops /. (m.ms /. 1000.0)
let writes_per_op m = float_of_int m.dev_writes /. float_of_int m.ops

(* The per-op mode never runs the daemon, so its pipeline histograms
   are legitimately empty — dashes, not zeroes. *)
let row m =
  let daemon fmt = if m.commits = 0 then "-" else fmt () in
  [
    m.label;
    fmt_int m.ops;
    Printf.sprintf "%.0f" (ops_per_s m);
    fmt_int m.dev_writes;
    fmt_f2 (writes_per_op m);
    daemon (fun () -> fmt_int m.commits);
    daemon (fun () -> fmt_us m.commit_us_mean);
    daemon (fun () ->
        if m.commit_us_p95 = max_int then "inf"
        else fmt_int m.commit_us_p95 ^ "us");
    daemon (fun () -> fmt_f1 m.batch_ops_mean);
  ]

let json_row m =
  Jobj
    [
      ("mode", Jstring m.label);
      ("ops", Jint m.ops);
      ("wall_ms", Jfloat m.ms);
      ("ops_per_s", Jfloat (ops_per_s m));
      ("device_writes", Jint m.dev_writes);
      ("writes_per_op", Jfloat (writes_per_op m));
      ("commits", Jint m.commits);
      ("commit_us_mean", Jfloat m.commit_us_mean);
      ( "commit_us_p95",
        if m.commit_us_p95 = max_int then Jstring "inf" else Jint m.commit_us_p95
      );
      ("batch_ops_mean", Jfloat m.batch_ops_mean);
    ]

let run () =
  heading "W1: group-commit write pipeline vs per-op checkpointing";
  let ops = List.hd (scaled [ 20_000 ] ~smoke:[ 120 ]) in
  let thresholds = scaled [ 8; 32; 128 ] ~smoke:[ 8 ] in
  say "%d scattered %dB overwrites over %d x %dKiB objects, journaled"
    ops write_bytes object_count (object_bytes / 1024);
  say "(sync = checkpoint per op; pipeline = group commit, barrier at end)";
  let sync = measure ~label:"sync" ~ops (config ~sync_writes:true ()) in
  let piped =
    List.map
      (fun k ->
        measure
          ~label:(Printf.sprintf "batch<=%dp" k)
          ~ops
          (config ~batch_max_pages:k ()))
      thresholds
  in
  table
    ([
       [
         "mode"; "ops"; "ops/s"; "dev writes"; "writes/op"; "commits";
         "commit mean"; "commit p95"; "ops/batch";
       ];
     ]
    @ List.map row (sync :: piped));
  say "";
  let all_win =
    List.for_all
      (fun m -> ops_per_s m > ops_per_s sync && writes_per_op m < writes_per_op sync)
      piped
  in
  say
    "acceptance: group commit beats per-op checkpointing on ops/s and \
     writes/op at every threshold -- %s"
    (if all_win then "OK" else "UNEXPECTED");
  say "expected shape: per-op mode pays the journal's fixed cost (descriptor,";
  say "seal, superblock) plus the dirty page twice for every operation; the";
  say "pipeline pays it once per batch, so writes/op collapses toward the";
  say "re-dirty rate and throughput rises with the batch threshold.";
  emit_json ~id:"W1"
    [
      ("experiment", Jstring "W1");
      ( "claim",
        Jstring
          "group commit amortizes the journaled checkpoint across a batch" );
      ( "config",
        Jobj
          [
            ("block_size", Jint block_size);
            ("journal_pages", Jint journal_pages);
            ("objects", Jint object_count);
            ("object_bytes", Jint object_bytes);
            ("write_bytes", Jint write_bytes);
            ("ops", Jint ops);
          ] );
      ("rows", Jlist (List.map json_row (sync :: piped)));
      ("acceptance", Jobj [ ("group_commit_wins_everywhere", Jbool all_win) ]);
    ]
