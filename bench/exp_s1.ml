(* S1 — network front door: batched group-commit vs connection count.

   The server claim: because every worker acks its in-flight mutations
   with ONE group-commit barrier per loop iteration, concurrent
   connections batch NATURALLY — N sync clients all have a request in
   flight when the worker wakes, so one journal commit (one fixed-cost
   seal + fsync in the model) acknowledges N puts. Throughput should
   therefore rise monotonically with the connection count: the wall
   clock overlaps client think time, and the modeled device time per op
   falls as the barrier amortizes across the batch.

   The workload: N client systhreads, each with its own blocking
   {!Hfad_server.Client} connection, driving a Zipf put/get/search mix
   over a preloaded key population. Every client is synchronous (one
   request in flight), so the batch the worker sees IS the concurrency
   — exactly the lockstep a front door faces from sync RPC callers.

   Throughput is reported as EFFECTIVE ops/s: wall clock plus the
   device's simulated service time (the repo-wide convention; see
   DESIGN.md section 3). Wall alone measures the host's scheduler; the
   latency model prices the journal commits the batching removed.

   Each connection count is measured twice and the better trial kept
   (loopback wall clock on a shared CI host is noisy; the device model
   is deterministic). Acceptance — ASSERTED, not just printed, so a
   regression fails smoke/CI: effective ops/s monotone non-decreasing
   from 1 to 8 connections, and the batched server beats a [sync_ack]
   server (barrier per mutation — per-request durability) at the
   highest connection count. *)

module Device = Hfad_blockdev.Device
module Latency = Hfad_blockdev.Latency
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module Rng = Hfad_util.Rng
module Server = Hfad_server.Server
module Client = Hfad_server.Client
module Wire = Hfad_server.Wire
open Bench_util

let block_size = 4096
let blocks = 16384
let workers = 2
let keys = 64
let zipf_skew = 1.0
let put_bytes = 256

(* Every object contains the word "payload", so the search leg always
   has hits to rank and the fulltext index stays on the hot path. *)
let content_of i =
  Printf.sprintf "payload %05d %s" i (String.make (put_bytes - 20) 'd')

let key_of k = Printf.sprintf "s1key%02d" k

(* Journaled (group commit is the thing under test) with a cache that
   holds the whole working set: the device traffic left for the model
   to price is journal commits, i.e. exactly what batching amortizes. *)
let fs_config = Fs.Config.v ~cache_pages:2048 ~journal_pages:256 ()

(* The front door's durability unit is the journal commit, and a commit
   on real hardware pays a FLUSH/fsync — hundreds of microseconds on a
   commodity SSD, not default_ssd's 25us bare NAND access — so S1
   prices accesses at fsync grade. The absolute number is deliberately
   round (DESIGN.md section 3); what S1 compares is how many such
   accesses each design shape pays per acknowledged op. *)
let s1_ssd = Latency.Ssd { access_ns = 400_000; per_byte_ns = 1 }

let build () =
  let dev = Device.create ~model:s1_ssd ~block_size ~blocks () in
  let fs = Fs.format ~config:fs_config dev in
  for k = 0 to keys - 1 do
    ignore
      (Fs.create_exn fs
         ~names:[ (Tag.Udef, key_of k) ]
         ~content:(content_of k))
  done;
  Fs.sync_exn ~mode:`Checkpoint fs;
  Device.reset_stats dev;
  (dev, fs)

type measured = {
  conns : int;
  ops : int;
  wall_ms : float;
  dev_ms : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  batches : int;
  batch_ops : int;
  busy : int;
  errors : int;
}

(* One op per loop turn: 60% put (the mutation whose ack waits on the
   barrier), 35% get, 5% search — write-heavy, because the batching
   claim is about mutation acks. *)
let client_loop ~port ~seed ~ops samples =
  let c = Client.connect ~port () in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let rng = Rng.create (Int64.of_int seed) in
      let cdf = Workload.zipf_cdf ~n:keys ~skew:zipf_skew in
      for i = 0 to ops - 1 do
        let key = key_of (Workload.zipf_pick cdf (Rng.float rng 1.0)) in
        let u = Rng.float rng 1.0 in
        let t0 = Unix.gettimeofday () in
        let r =
          if u < 0.60 then
            Result.map ignore (Client.put c ~key (content_of (seed + i)))
          else if u < 0.95 then Result.map ignore (Client.get c ~key)
          else Result.map ignore (Client.search c "payload")
        in
        samples.(i) <- 1_000_000. *. (Unix.gettimeofday () -. t0);
        match r with
        | Ok () -> ()
        | Error err ->
            failwith
              (Format.asprintf "S1 client: unexpected %a" Client.pp_error err)
      done)

let measure_once ~conns ~ops_per_conn ~sync_ack =
  let dev, fs = build () in
  let server =
    Server.start ~config:(Server.Config.v ~workers ~sync_ack ()) fs
  in
  let port = Server.port server in
  let lat = Array.init conns (fun _ -> Array.make ops_per_conn 0.0) in
  let _, wall_ms =
    time_ms (fun () ->
        let threads =
          List.init conns (fun c ->
              Thread.create
                (fun () ->
                  client_loop ~port
                    ~seed:(9_000 + (257 * c))
                    ~ops:ops_per_conn lat.(c))
                ())
        in
        List.iter Thread.join threads)
  in
  let s = Server.stats server in
  Server.stop server;
  let dstats = Device.stats dev in
  Fs.close fs;
  let all = Array.concat (Array.to_list lat) in
  {
    conns;
    ops = conns * ops_per_conn;
    wall_ms;
    dev_ms = float_of_int dstats.Device.simulated_ns /. 1e6;
    p50_us = Workload.percentile 0.50 all;
    p99_us = Workload.percentile 0.99 all;
    p999_us = Workload.percentile 0.999 all;
    batches = s.Wire.Stats.batches;
    batch_ops = s.Wire.Stats.batch_ops;
    busy = s.Wire.Stats.busy;
    errors = s.Wire.Stats.errors;
  }

let effective_ms m = m.wall_ms +. m.dev_ms

let ops_per_s m =
  let ms = effective_ms m in
  if ms <= 0.0 then 0.0 else float_of_int m.ops /. (ms /. 1000.0)

(* Best of [trials]: the device model is deterministic, so this only
   strips wall-clock scheduler noise off the monotonicity check. *)
let measure ?(trials = 2) ~conns ~ops_per_conn ~sync_ack () =
  let best = ref (measure_once ~conns ~ops_per_conn ~sync_ack) in
  for _ = 2 to trials do
    let m = measure_once ~conns ~ops_per_conn ~sync_ack in
    if ops_per_s m > ops_per_s !best then best := m
  done;
  !best

let avg_batch m =
  if m.batches = 0 then 0.0
  else float_of_int m.batch_ops /. float_of_int m.batches

let row m =
  [
    string_of_int m.conns;
    fmt_int m.ops;
    Printf.sprintf "%.0f" (ops_per_s m);
    Printf.sprintf "%.0f" m.wall_ms;
    Printf.sprintf "%.0f" m.dev_ms;
    fmt_us m.p50_us;
    fmt_us m.p99_us;
    fmt_us m.p999_us;
    fmt_f1 (avg_batch m);
  ]

let json_row m =
  Jobj
    [
      ("conns", Jint m.conns);
      ("ops", Jint m.ops);
      ("ops_per_s", Jfloat (ops_per_s m));
      ("wall_ms", Jfloat m.wall_ms);
      ("device_model_ms", Jfloat m.dev_ms);
      ("effective_ms", Jfloat (effective_ms m));
      ("ack_p50_us", Jfloat m.p50_us);
      ("ack_p99_us", Jfloat m.p99_us);
      ("ack_p999_us", Jfloat m.p999_us);
      ("batches", Jint m.batches);
      ("batch_ops", Jint m.batch_ops);
      ("avg_batch", Jfloat (avg_batch m));
      ("busy", Jint m.busy);
      ("errors", Jint m.errors);
    ]

let run () =
  heading "S1: front-door throughput vs connection count (batched acks)";
  let ops_per_conn = scaled 1_200 ~smoke:60 in
  let conn_counts = [ 1; 2; 4; 8 ] in
  say
    "%d worker domains; %d sync clients x %d ops; 60/35/5 put/get/search \
     Zipf(%.1f) over %d keys"
    workers (List.fold_left max 0 conn_counts) ops_per_conn zipf_skew keys;
  say
    "(one barrier acks a worker's whole read batch; sync_ack pays one per \
     mutation)";
  let rows =
    List.map
      (fun conns -> measure ~conns ~ops_per_conn ~sync_ack:false ())
      conn_counts
  in
  let max_conns = List.fold_left max 0 conn_counts in
  let sync = measure ~conns:max_conns ~ops_per_conn ~sync_ack:true () in
  table
    ([
       [
         "conns"; "ops"; "ops/s"; "wall ms"; "dev ms"; "ack p50"; "ack p99";
         "ack p999"; "avg batch";
       ];
     ]
    @ List.map row rows
    @ [ ("sync@" ^ string_of_int max_conns) :: List.tl (row sync) ]);
  say "";
  let monotone =
    let rec check = function
      | a :: (b :: _ as rest) -> ops_per_s a <= ops_per_s b && check rest
      | _ -> true
    in
    check rows
  in
  let batched = List.nth rows (List.length rows - 1) in
  let beats_sync = ops_per_s batched > ops_per_s sync in
  let speedup =
    if ops_per_s sync > 0.0 then ops_per_s batched /. ops_per_s sync else 0.0
  in
  say "acceptance: effective ops/s monotone non-decreasing 1 -> %d conns -- %s"
    max_conns
    (if monotone then "OK" else "FAILED");
  say
    "acceptance: batched group-commit beats sync-per-request at %d conns \
     (%.1fx) -- %s"
    max_conns speedup
    (if beats_sync then "OK" else "FAILED");
  say "expected shape: sync clients lockstep, so the batch a worker commits";
  say "grows with the connection count; the journal's fixed commit cost";
  say "amortizes and modeled device ms per op falls while wall overlaps.";
  emit_json ~id:"S1"
    [
      ("experiment", Jstring "S1");
      ( "claim",
        Jstring
          "one group-commit barrier acks a whole batch of connections; \
           throughput rises with connection count and beats \
           per-request durability" );
      ( "config",
        Jobj
          [
            ("block_size", Jint block_size);
            ("blocks", Jint blocks);
            ("latency_model", Jstring "ssd access 400us (fsync-grade)");
            ("workers", Jint workers);
            ("keys", Jint keys);
            ("put_bytes", Jint put_bytes);
            ("zipf_skew", Jfloat zipf_skew);
            ("ops_per_conn", Jint ops_per_conn);
            ("mix", Jstring "put 0.60 / get 0.35 / search 0.05");
          ] );
      ("rows", Jlist (List.map json_row rows));
      ("sync_baseline", json_row sync);
      ( "acceptance",
        Jobj
          [
            ("ops_per_s_monotone_in_conns", Jbool monotone);
            ("batched_beats_sync", Jbool beats_sync);
          ] );
    ];
  if not (monotone && beats_sync) then
    failwith "S1 acceptance failed (see table above)"
