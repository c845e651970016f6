(* The wire workload, wire-write: a server child (see Child) driven
   over loopback by two synchronous client connections, each on its own
   domain, in a closed loop. 80% PUT overwrite, 10% GET, 10% SEARCH for
   two words of a key's value. A client PUTs and SEARCHes only keys of
   its own parity, whose last value it knows, and GETs any key. *)

module Device = Hfad_blockdev.Device
module Latency = Hfad_blockdev.Latency
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module Oid = Hfad_osd.Oid
module Client = Hfad_server.Client
module Wire = Hfad_server.Wire

let keys = 1024
let value_bytes = 240
let clients = 2
let block_size = 4096
let blocks = 65536

(* Journaled; every other field (cache_pages 1024, batch_max_age 10 ms,
   batch_max_pages 256) at its default. *)
let fs_config = Fs.Config.v ~journal_pages:2048 ()

(* NO-STEAL keeps every dirty page resident until a checkpoint, so the
   preload checkpoints every [preload_chunk] creates. *)
let preload_chunk = 64

let key_name i = Printf.sprintf "k%04d" i

type image = { values : string array; oids : int64 array }

let build_image ~seed host path =
  let g = Gen.create ~seed ~stream:0 ~targets:keys [ (1.0, ()) ] in
  let values = Array.init keys (fun _ -> Gen.text g ~bytes:value_bytes) in
  let dev = Device.create ~model:Latency.default_ssd ~block_size ~blocks () in
  let fs = Fs.format ~config:fs_config dev in
  let oids =
    Array.mapi
      (fun i v ->
        if i > 0 && i mod preload_chunk = 0 then begin
          Fs.sync_exn ~mode:`Checkpoint fs;
          Host.probe host
        end;
        Oid.to_int64 (Fs.create_exn fs ~names:[ (Tag.Udef, key_name i) ] ~content:v))
      values
  in
  Fs.sync_exn ~mode:`Checkpoint fs;
  Device.save dev path;
  Fs.close fs;
  { values; oids }

(* Format, preload, save and bring a server child up: [reps] times,
   keeping the last server and reporting the median set-up time, each
   converted to reference-host time (see Host). *)
let setup ~seed ~reps path =
  let host = Host.create () in
  let once () =
    let t0 = Unix.gettimeofday () and spent = host.Host.spent in
    let img = build_image ~seed host path in
    let child = Child.spawn path in
    let raw = Unix.gettimeofday () -. t0 -. (host.Host.spent -. spent) in
    (raw /. Host.close_slice host, img, child)
  in
  let rec go n times =
    let dt, img, child = once () in
    if n <= 1 then (Stat.median (dt :: times), img, child)
    else begin
      if not (Child.stop child) then failwith "server child failed to stop";
      go (n - 1) (dt :: times)
    end
  in
  go reps []

(* --- clients -------------------------------------------------------------- *)

type kind = Put | Get | Search

let kind_name = function Put -> "put" | Get -> "get" | Search -> "search"
let cls = function Put -> 0 | Get -> 1 | Search -> 2

type client = {
  id : int;
  conn : Client.t;
  gen : kind Gen.t;
  mutable samples : Samples.t;  (* this phase *)
  mutable put_bytes : int;  (* this phase *)
  mutable attempted : int;
  mutable failed : int;
}

(* What a GET may return: every value ever sent per key. *)
type written = {
  mu : Mutex.t;
  sent : (Digest.t, unit) Hashtbl.t array;
  last_acked : string array;  (* written and read only by the key's owner *)
}

let written_of img =
  let sent =
    Array.map
      (fun v ->
        let h = Hashtbl.create 4 in
        Hashtbl.replace h (Digest.string v) ();
        h)
      img.values
  in
  { mu = Mutex.create (); sent; last_acked = Array.copy img.values }

let timed c kind f =
  let t0 = Unix.gettimeofday () in
  let ok = f () in
  let t1 = Unix.gettimeofday () in
  Samples.add c.samples ~us:((t1 -. t0) *. 1e6) (cls kind);
  c.attempted <- c.attempted + 1;
  if not ok then c.failed <- c.failed + 1

let op img w c =
  let kind, t = Gen.next c.gen in
  let own = t - (t mod clients) + c.id in
  match kind with
  | Put ->
      let v = Gen.text c.gen ~bytes:value_bytes in
      Mutex.protect w.mu (fun () -> Hashtbl.replace w.sent.(own) (Digest.string v) ());
      c.put_bytes <- c.put_bytes + String.length v;
      timed c Put (fun () ->
          match Client.put c.conn ~key:(key_name own) v with
          | Ok oid when oid = img.oids.(own) ->
              w.last_acked.(own) <- v;
              true
          | Ok _ | Error _ -> false)
  | Get ->
      timed c Get (fun () ->
          match Client.get c.conn ~key:(key_name t) with
          | Ok data -> Mutex.protect w.mu (fun () -> Hashtbl.mem w.sent.(t) (Digest.string data))
          | Error _ -> false)
  | Search ->
      let query = String.concat " " (Gen.two_terms c.gen w.last_acked.(own)) in
      timed c Search (fun () ->
          match Client.search c.conn query with
          | Ok hits -> List.exists (fun (oid, _) -> oid = img.oids.(own)) hits
          | Error _ -> false)

(* Run every client's [op] on a domain of its own until [seconds] pass,
   or until [stop_early] (polled every 50 ms) holds; each client
   finishes the op in flight. Domains rather than threads, so that one
   client's bookkeeping never holds the other's reply behind a runtime
   lock. Returns the phase's ops and wall seconds. *)
let phase ?stop_early clients ~seconds op =
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun c ->
      c.samples <- Samples.create ();
      c.put_bytes <- 0)
    clients;
  let deadline = t0 +. seconds in
  let stop = Atomic.make false in
  let domains =
    List.map
      (fun c ->
        Domain.spawn (fun () ->
            while (not (Atomic.get stop)) && Unix.gettimeofday () < deadline do
              op c
            done))
      clients
  in
  Option.iter
    (fun full ->
      while (not (Atomic.get stop)) && Unix.gettimeofday () < deadline do
        Thread.delay 0.05;
        if full () then Atomic.set stop true
      done)
    stop_early;
  List.iter Domain.join domains;
  (Samples.merge (List.map (fun c -> c.samples) clients), Unix.gettimeofday () -. t0)

(* --- scrapes ------------------------------------------------------------------ *)

type scrape = { stats : Wire.Stats.t; metrics : Stat.snapshot }

let ok what = function
  | Ok x -> x
  | Error e -> failwith (Format.asprintf "%s: %a" what Client.pp_error e)

(* Window boundaries are scraped in an order that keeps the large
   METRICS replies out of the window's byte counts: METRICS then STATS
   before, STATS then METRICS after. *)
let scrape_before conn =
  let metrics = Stat.snapshot_of_text (ok "metrics" (Client.metrics conn)) in
  { stats = ok "stats" (Client.stats conn); metrics }

let scrape_after conn =
  let stats = ok "stats" (Client.stats conn) in
  { stats; metrics = Stat.snapshot_of_text (ok "metrics" (Client.metrics conn)) }

(* --- one run ---------------------------------------------------------------- *)

let run ~seed ~seconds ~trace ~setup_reps ~workdir =
  let image = Filename.concat workdir (Printf.sprintf "wire-%d.img" (Unix.getpid ())) in
  let setup_s, img, child = setup ~seed ~reps:setup_reps image in
  Gc.compact ();
  let w = written_of img in
  let mix = [ (0.8, Put); (0.1, Get); (0.1, Search) ] in
  let clients =
    List.init clients (fun id ->
        {
          id;
          conn = Client.connect ~port:(Child.port child) ();
          gen = Gen.create ~seed ~stream:(1 + id) ~targets:keys mix;
          samples = Samples.create ();
          put_bytes = 0;
          attempted = 0;
          failed = 0;
        })
  in
  let op = op img w in
  let ctl = (List.hd clients).conn in
  let measured = if trace then seconds /. 2. else seconds in
  ignore (phase clients ~seconds:(Float.min 2.0 (seconds /. 5.)) op);
  let a = scrape_before ctl in
  Child.mark child;
  let window, wall = phase clients ~seconds:measured op in
  let b = scrape_after ctl in
  let counters = Child.report child in
  let put_bytes = List.fold_left (fun acc c -> acc + c.put_bytes) 0 clients in
  let ops = Samples.length window in
  let rate = float_of_int ops /. wall in
  let ops_per_s, op_p50 = Samples.end_to_end window ~wall in
  let kinds = [ Put; Get; Search ] in
  let classes =
    Report.class_metrics
      (List.map (fun k -> (kind_name k, Samples.latencies ~cls:(cls k) window)) kinds)
  in
  let traced =
    if trace then begin
      Child.trace child;
      let full () = Spans.window_full (Child.ring_occupancy child) in
      let tw, wall = phase ~stop_early:full clients ~seconds:measured op in
      let n = Samples.length tw in
      Some (Child.report child, n, float_of_int n /. wall)
    end
    else None
  in
  List.iter (fun c -> Client.close c.conn) clients;
  let saved = Child.stop child in
  (* The saved image must reopen clean, with each key holding its
     owner's last acknowledged value. *)
  let reopen =
    match Fs.open_existing (Device.load image) with
    | Error _ -> List.init keys (fun _ -> false)
    | Ok fs ->
        let verified = match Fs.verify fs with () -> true | exception _ -> false in
        let held =
          List.init keys (fun k ->
              match Fs.lookup_one fs [ (Tag.Udef, key_name k) ] with
              | Some oid -> Fs.read_all fs oid = w.last_acked.(k)
              | None -> false)
        in
        Fs.close fs;
        verified :: held
  in
  Sys.remove image;
  let attempted = List.fold_left (fun acc c -> acc + c.attempted) 0 clients + List.length reopen in
  let failed =
    List.fold_left (fun acc c -> acc + c.failed) 0 clients
    + List.length (List.filter not reopen)
  in
  let cnt = Common.field counters in
  let p50 kind = Stat.median (Samples.latencies ~cls:(cls kind) window) in
  let puts = Samples.count ~cls:(cls Put) window in
  let exec kind = Stat.histogram_quantile a.metrics b.metrics ("server.latency_us." ^ kind_name kind) 0.5 in
  let transport = Stat.transport_p50 ~get_p50:(p50 Get) ~execute_get_p50:(exec Get) in
  let d name = Stat.delta a.metrics b.metrics name in
  let sa = a.stats and sb = b.stats in
  let commits =
    List.fold_left2
      (fun acc x y -> acc + y.Wire.Stats.checkpoints - x.Wire.Stats.checkpoints)
      0 sa.Wire.Stats.shards sb.Wire.Stats.shards
  in
  let stats_reply = String.length (Wire.encode_response ~id:0 (Wire.Ok_stats sa)) in
  let layers =
    Report.
      [
        m "server.execute_p50_us.put" "us" (exec Put);
        m "server.execute_p50_us.get" "us" (exec Get);
        m "server.execute_p50_us.search" "us" (exec Search);
        m "server.avg_batch" "count"
          (Stat.per (sb.batch_ops - sa.batch_ops) (sb.batches - sa.batches));
        m "server.bytes_out_per_op" "B/op"
          (Stat.per (sb.bytes_out - sa.bytes_out - stats_reply) ops);
        m "wire.transport_p50_us" "us" transport;
        m "server.busy" "count" (float_of_int (sb.busy - sa.busy));
        m "flusher.ack_wait_p50_us" "us"
          (if puts = 0 then 0.0
           else Stat.ack_wait_p50 ~put_p50:(p50 Put) ~execute_put_p50:(exec Put) ~transport_p50:transport);
        m "flusher.commit_p50_us" "us"
          (Stat.histogram_quantile a.metrics b.metrics "fs.pipeline.commit_latency_us" 0.5);
        m "flusher.commits_per_put" "ratio" (Stat.per (d "fs.pipeline.commits") puts);
        m "flusher.batch_pages_avg" "pages"
          (Stat.histogram_mean a.metrics b.metrics "fs.pipeline.batch_pages");
        m "journal.commits_per_put" "ratio" (Stat.per commits puts);
        m "device.writes_per_commit" "1/commit" (Stat.ratio (cnt "device.writes") (float_of_int commits));
        m "device.bytes_written_per_user_byte" "ratio"
          (Stat.ratio (cnt "device.bytes_written") (float_of_int put_bytes));
        m "osd.bytes_written_per_put" "B/put" (Stat.per (d "osd.bytes_written") puts);
      ]
    @ Common.process_layers ~ops counters a.metrics b.metrics
    @ Common.trace_layers ~ops_per_s:rate traced
  in
  {
    Report.attempted;
    failed;
    checks =
      ("server child saved and exited", saved)
      :: Common.trace_checks (Option.map (fun (c, _, _) -> Common.field c "trace.dropped") traced);
    end_to_end = Common.end_to_end ~setup_s ~ops_per_s ~op_p50 counters;
    detail = classes;
    layers;
  }
