(* W2 — multi-tenant write storm across shard counts.

   The scale-out claim: once the namespace is flat, the OID space
   hash-partitions into N fully independent stacks (own device region,
   pager, locks, flusher daemon), and a multi-tenant load whose working
   set exceeds one stack's cache should gain throughput as N grows,
   because every shard brings its own pager with it: aggregate cache is
   N x [cache_pages], so the storm's miss rate — and with it the device
   reads and dirty write-backs each miss costs — falls toward zero.

   The storm: a FIXED set of writer domains (parallelism offered to
   every configuration equally), one per tenant, each driving small
   scattered overwrites into its own tenant's objects — the object
   within the tenant chosen by a Zipf draw (a few hot objects, a long
   tail). Objects were created with the tenant name as their USER tag,
   so the router's placement affinity puts each tenant's objects on one
   shard — cross-tenant traffic, not cross-shard traffic. The combined
   working set is 8x one shard's cache: one shard thrashes, eight hold
   it entirely.

   Throughput is reported as EFFECTIVE ops/s: elapsed wall clock plus
   the device's simulated service time (the repo-wide convention — wall
   clock alone measures the host machine, the latency model measures
   the design; see DESIGN.md section 3). Every row uses the same SSD
   model, so the differences are the miss traffic the shards removed.

   Measured per shard count: effective aggregate ops/s, wall and
   simulated-device milliseconds, device reads/writes, per-op
   acknowledge latency p99 (wall), group commits. Acceptance: effective
   ops/s must rise monotonically 1 -> 2 -> 4 -> 8 shards. *)

module Device = Hfad_blockdev.Device
module Latency = Hfad_blockdev.Latency
module Fs = Hfad.Fs
module Flusher = Hfad.Flusher
module Tag = Hfad_index.Tag
module Rng = Hfad_util.Rng
module Router = Hfad_shard.Router
open Bench_util

let block_size = 4096
let blocks = 16384
let cache_pages = 512 (* per shard; the storm's working set is 8x this *)
let tenants = 8
let writers = tenants (* one domain per tenant *)
let objects_per_tenant = 4
let object_bytes = 512 * 1024
let write_bytes = 256
let payload = String.make write_bytes 'w'
let zipf_skew = 1.1

(* Tenant identities chosen so the placement hash spreads them
   PERFECTLY at every measured shard count: one tenant per residue
   class mod 8 (hence balanced mod 4 and mod 2 too). The storm then
   measures the stack's scaling, not the luck of one hash draw. *)
let tenant_names =
  let r8 = Router.create ~shards:8 in
  let found = Array.make 8 None in
  let rec go k remaining =
    if remaining > 0 then begin
      let name = Workload.tenant_name k in
      let s = Router.shard_of_key r8 name in
      if found.(s) = None then begin
        found.(s) <- Some name;
        go (k + 1) (remaining - 1)
      end
      else go (k + 1) remaining
    end
  in
  go 0 8;
  Array.map Option.get found

let target =
  Workload.scatter_target ~objects:objects_per_tenant ~object_bytes
    ~write_bytes

(* Unjournaled (steal allowed, so a small cache spills under pressure
   instead of filling), group commit only at the barrier: the device
   traffic left for the model to price is exactly the pager's miss
   reads and dirty-page spills. *)
let config ~shards =
  Fs.Config.v ~cache_pages ~index_mode:Fs.Off ~journal_pages:0
    ~batch_max_pages:max_int ~batch_max_age:3600.0 ~shards ()

(* Freshly flushed instance on a simulated SSD: every tenant's objects
   created with the tenant as USER tag (placement affinity), stats
   zeroed so only the storm counts. *)
let build ~shards =
  let dev =
    Device.create ~model:Latency.default_ssd ~block_size ~blocks ()
  in
  let fs = Fs.format ~config:(config ~shards) dev in
  let oids =
    Array.init tenants (fun tn ->
        Array.init objects_per_tenant (fun _ ->
            Fs.create_exn fs
              ~names:[ (Tag.User, tenant_names.(tn)) ]
              ~content:(String.make object_bytes 'x')))
  in
  Fs.sync_exn ~mode:`Checkpoint fs;
  Device.reset_stats dev;
  (dev, fs, oids)

type measured = {
  shards : int;
  ops : int;
  wall_ms : float;
  dev_ms : float;
  p99_us : float;
  dev_reads : int;
  dev_writes : int;
  commits : int;
}

let measure ~shards ~ops_per_writer =
  let dev, fs, oids = build ~shards in
  Fs.start_pipeline fs;
  let cdf = Workload.zipf_cdf ~n:objects_per_tenant ~skew:zipf_skew in
  let lat = Array.init writers (fun _ -> Array.make ops_per_writer 0.0) in
  let _, wall_ms =
    time_ms (fun () ->
        let spawned =
          List.init writers (fun w ->
              Domain.spawn (fun () ->
                  let rng = Rng.create (Int64.of_int (7_000 + w)) in
                  let samples = lat.(w) in
                  (* Writer [w] owns tenant [w] alone — the working sets
                     are disjoint, so contention measured is the
                     STACK's, not the benchmark's. *)
                  let objs = oids.(w) in
                  for i = 0 to ops_per_writer - 1 do
                    let obj = Workload.zipf_pick cdf (Rng.float rng 1.0) in
                    let _, off = target i in
                    let t0 = Unix.gettimeofday () in
                    Fs.write_exn fs objs.(obj) ~off payload;
                    samples.(i) <- 1_000_000. *. (Unix.gettimeofday () -. t0);
                    if i land 63 = 63 then Thread.yield ()
                  done))
        in
        List.iter Domain.join spawned;
        Fs.sync_exn fs)
  in
  let commits =
    match Fs.pipeline_stats fs with
    | Some s -> s.Flusher.commits
    | None -> 0
  in
  Fs.stop_pipeline fs;
  let stats = Device.stats dev in
  Fs.close fs;
  {
    shards;
    ops = writers * ops_per_writer;
    wall_ms;
    dev_ms = float_of_int stats.Device.simulated_ns /. 1e6;
    p99_us = Workload.percentile 0.99 (Array.concat (Array.to_list lat));
    dev_reads = stats.Device.reads;
    dev_writes = stats.Device.writes;
    commits;
  }

(* Effective elapsed = wall clock (CPU, locks) + modeled device time
   (miss reads, spills). Comparable across rows: same model, same ops. *)
let effective_ms m = m.wall_ms +. m.dev_ms

let ops_per_s m =
  let ms = effective_ms m in
  if ms <= 0.0 then 0.0 else float_of_int m.ops /. (ms /. 1000.0)

let row m =
  [
    string_of_int m.shards;
    fmt_int m.ops;
    Printf.sprintf "%.0f" (ops_per_s m);
    Printf.sprintf "%.0f" m.wall_ms;
    Printf.sprintf "%.0f" m.dev_ms;
    fmt_int m.dev_reads;
    fmt_int m.dev_writes;
    fmt_us m.p99_us;
    fmt_int m.commits;
  ]

let json_row m =
  Jobj
    [
      ("shards", Jint m.shards);
      ("ops", Jint m.ops);
      ("ops_per_s", Jfloat (ops_per_s m));
      ("wall_ms", Jfloat m.wall_ms);
      ("device_model_ms", Jfloat m.dev_ms);
      ("effective_ms", Jfloat (effective_ms m));
      ("ack_p99_us", Jfloat m.p99_us);
      ("device_reads", Jint m.dev_reads);
      ("device_writes", Jint m.dev_writes);
      ("commits", Jint m.commits);
    ]

let run () =
  heading "W2: multi-tenant write storm vs shard count";
  let ops_per_writer = scaled 5_000 ~smoke:60 in
  let shard_counts = scaled [ 1; 2; 4; 8 ] ~smoke:[ 1; 2 ] in
  say
    "%d writer domains, %d tenants, %d x %dKiB objects each; %dB Zipf(%.1f) \
     overwrites"
    writers tenants objects_per_tenant (object_bytes / 1024) write_bytes
    zipf_skew;
  say
    "(tenant tag = placement affinity; %d-page cache per shard vs %d-page \
     working set)"
    cache_pages
    (tenants * objects_per_tenant * object_bytes / block_size);
  let rows =
    List.map (fun shards -> measure ~shards ~ops_per_writer) shard_counts
  in
  table
    ([
       [
         "shards"; "ops"; "ops/s"; "wall ms"; "dev ms"; "dev reads";
         "dev writes"; "ack p99"; "commits";
       ];
     ]
    @ List.map row rows);
  say "";
  let monotone =
    let rec check = function
      | a :: (b :: _ as rest) -> ops_per_s a < ops_per_s b && check rest
      | _ -> true
    in
    check rows
  in
  say "acceptance: ops/s rises monotonically with the shard count -- %s"
    (if monotone then "OK" else "UNEXPECTED");
  say "expected shape: every shard arrives with its own pager, so aggregate";
  say "cache grows with N while the working set stays fixed; the miss reads";
  say "and dirty spills one thrashing shard pays vanish by eight shards, and";
  say "effective throughput rises as the device drops out of the loop.";
  emit_json ~id:"W2"
    [
      ("experiment", Jstring "W2");
      ( "claim",
        Jstring
          "a flat OID space hash-partitions; write throughput scales with \
           shard count" );
      ( "config",
        Jobj
          [
            ("block_size", Jint block_size);
            ("blocks", Jint blocks);
            ("cache_pages_per_shard", Jint cache_pages);
            ("latency_model", Jstring "default_ssd");
            ("writers", Jint writers);
            ("tenants", Jint tenants);
            ("objects_per_tenant", Jint objects_per_tenant);
            ("object_bytes", Jint object_bytes);
            ("write_bytes", Jint write_bytes);
            ("zipf_skew", Jfloat zipf_skew);
            ("ops_per_writer", Jint ops_per_writer);
          ] );
      ("rows", Jlist (List.map json_row rows));
      ("acceptance", Jobj [ ("ops_per_s_monotone_in_shards", Jbool monotone) ]);
    ]
