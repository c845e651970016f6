(* The naming workload: in process, one thread, no server, no commits.

   A photo library and a mail archive are loaded through the POSIX
   veneer into a journaled stack whose live pages outnumber the pager's
   frames several times over, then three naming ops run on Zipf-drawn
   targets:
     lookup     Fs.lookup on UDEF place ∧ UDEF person of a photo
     path_read  Posix_fs.read_file of an email's path
     search     Fs.search on the topic word of an email's subject *)

module Device = Hfad_blockdev.Device
module Latency = Hfad_blockdev.Latency
module Fs = Hfad.Fs
module P = Hfad_posix.Posix_fs
module Tag = Hfad_index.Tag
module Oid = Hfad_osd.Oid
module Osd = Hfad_osd.Osd
module Corpus = Hfad_workload.Corpus
module Load = Hfad_workload.Load
module Trace = Hfad_trace.Trace
module Prometheus = Hfad_metrics.Prometheus

let cache_pages = 256
let per_corpus = 600  (* photos, and as many emails *)
let fs_config = Fs.Config.v ~cache_pages ~journal_pages:2048 ()

(* At this cache size a bulk load outgrows NO-STEAL's dirty budget
   unless it checkpoints every few creates. *)
let load_chunk = 32

type image = {
  fs : Fs.t;
  p : P.t;
  photos : Corpus.photo array;
  emails : Corpus.email array;
  photo_oids : Oid.t array;
  email_oids : Oid.t array;
}

let rec chunks n = function
  | [] -> []
  | l ->
      let rec split k acc = function
        | x :: tl when k > 0 -> split (k - 1) (x :: acc) tl
        | rest -> (List.rev acc, rest)
      in
      let c, rest = split n [] l in
      c :: chunks n rest

let load host fs into items =
  List.concat_map
    (fun c ->
      let oids = into c in
      Fs.sync_exn ~mode:`Checkpoint fs;
      Host.probe host;
      oids)
    (chunks load_chunk items)

(* The corpus is the same for every seed, like a benchmark's data set;
   the seed picks the query stream over it. *)
let build host =
  let rng = Gen.rng_of ~seed:0 ~stream:0 in
  let photos = Corpus.photos rng ~count:per_corpus in
  let emails = Corpus.emails rng ~count:per_corpus in
  let dev = Device.create ~model:Latency.default_ssd ~block_size:4096 ~blocks:65536 () in
  let fs = Fs.format ~config:fs_config dev in
  let p = P.mount fs in
  let photo_oids = load host fs (Load.photos_into_hfad p) photos in
  let email_oids = load host fs (Load.emails_into_hfad p) emails in
  {
    fs;
    p;
    photos = Array.of_list photos;
    emails = Array.of_list emails;
    photo_oids = Array.of_list photo_oids;
    email_oids = Array.of_list email_oids;
  }

let close img =
  P.unmount img.p;
  Fs.close img.fs

(* Each set-up's time is converted to reference-host time by the
   slowdown the host showed while it ran (see Host). *)
let setup host ~reps =
  let rec go n times =
    let t0 = Unix.gettimeofday () and spent = host.Host.spent in
    let img = build host in
    let raw = Unix.gettimeofday () -. t0 -. (host.Host.spent -. spent) in
    let times = (raw /. Host.close_slice host) :: times in
    if n <= 1 then (Stat.median times, img)
    else begin
      close img;
      go (n - 1) times
    end
  in
  go reps []

(* Pages the stack holds live: what the pager would need to cache it all. *)
let live_pages img =
  let s = Hfad_alloc.Buddy.stats (Osd.allocator (Fs.osd img.fs)) in
  s.Hfad_alloc.Buddy.total_blocks - s.Hfad_alloc.Buddy.free_blocks

type kind = Lookup | Path_read | Search

let kind_name = function Lookup -> "lookup" | Path_read -> "path_read" | Search -> "search"
let cls = function Lookup -> 0 | Path_read -> 1 | Search -> 2

(* Chosen, not observed: no source gives a query mix. Lookups, the
   paper's tag conjunction, are most of the ops, so the mix median lies
   in the dense middle of the lookup latencies rather than at the edge
   where the fast path reads give way to them. *)
let mix = [ (0.7, Lookup); (0.15, Path_read); (0.15, Search) ]

(* One op, under a benchmark span; true when it found its target. *)
let op img g kind t =
  Trace.with_span ~layer:"bench" ~op:(kind_name kind) @@ fun () ->
  match kind with
  | Lookup ->
      let ph = img.photos.(t) in
      let person = List.nth ph.Corpus.people (Gen.int g (List.length ph.Corpus.people)) in
      List.mem img.photo_oids.(t)
        (Fs.lookup img.fs [ (Tag.Udef, ph.Corpus.place); (Tag.Udef, person) ])
  | Path_read ->
      let e = img.emails.(t) in
      P.read_file img.p e.Corpus.email_path = e.Corpus.subject ^ "\n" ^ e.Corpus.body
  | Search ->
      let e = img.emails.(t) in
      let topic = List.hd (String.split_on_char ' ' e.Corpus.subject) in
      List.exists (fun (oid, _) -> Oid.equal oid img.email_oids.(t)) (Fs.search img.fs topic)

type window = {
  samples : Samples.t;
  failed : int;
  wall : float;  (* reference-host seconds *)
  raw_wall : float;  (* seconds as measured *)
}

(* The host is probed every [probe_every] seconds between ops, and each
   [slice] seconds of ops is converted to reference-host time by the
   slowdown its probes show. *)
let probe_every = 0.05
let slice = 1.0

(* Run ops until [seconds] pass or, in a traced window, the span ring
   is half full. Probe time is left out of op latencies and of the
   window's wall time. *)
let phase img g host ~seconds =
  let samples = Samples.create () and failed = ref 0 in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  let wall = ref 0.0 and raw_wall = ref 0.0 in
  let first = ref 0 and since = ref t0 and spent = ref host.Host.spent in
  let next_probe = ref (t0 +. probe_every) in
  let close now =
    let raw = now -. !since -. (host.Host.spent -. !spent) in
    let s = Host.close_slice host in
    Samples.set_slowdown samples ~from:!first s;
    wall := !wall +. (raw /. s);
    raw_wall := !raw_wall +. raw;
    let now = Unix.gettimeofday () in
    first := Samples.length samples;
    since := now;
    spent := host.Host.spent;
    next_probe := now +. probe_every;
    now
  in
  let rec go now =
    if now >= deadline || (Trace.enabled () && Spans.window_full (Trace.ring_occupancy ()))
    then begin
      ignore (close now);
      { samples; failed = !failed; wall = !wall; raw_wall = !raw_wall }
    end
    else if now -. !since >= slice then go (close now)
    else if now >= !next_probe then begin
      Host.probe host;
      let now = Unix.gettimeofday () in
      next_probe := now +. probe_every;
      go now
    end
    else begin
      let kind, t = Gen.next g in
      let ok = try op img g kind t with _ -> false in
      let t1 = Unix.gettimeofday () in
      Samples.add samples ~us:((t1 -. now) *. 1e6) (cls kind);
      if not ok then incr failed;
      go t1
    end
  in
  go t0

let pathcache img =
  match P.pathcache_stats img.p with
  | Some s -> (s.Hfad_pathcache.Pathcache.hits, s.Hfad_pathcache.Pathcache.misses)
  | None -> (0, 0)

let run ~seed ~seconds ~trace ~setup_reps =
  let host = Host.create () in
  let setup_s, img = setup host ~reps:setup_reps in
  let live = live_pages img in
  Gc.compact ();
  let g = Gen.create ~seed ~stream:1 ~targets:per_corpus mix in
  let measured = if trace then seconds /. 2. else seconds in
  let warm = phase img g host ~seconds:(Float.min 2.0 (seconds /. 5.)) in
  let ma = Stat.snapshot_of_text (Prometheus.expose ()) in
  let ca = Common.read_counters img.fs and pa = pathcache img in
  let w = phase img g host ~seconds:measured in
  let counters = Common.counter_deltas ca (Common.read_counters img.fs) in
  let mb = Stat.snapshot_of_text (Prometheus.expose ()) in
  let hits, misses = let h, m = pathcache img and h0, m0 = pa in (h - h0, m - m0) in
  let ops = Samples.length w.samples in
  let rate = float_of_int ops /. w.wall in
  let ops_per_s, op_p50 = Samples.end_to_end w.samples ~wall:w.wall in
  let traced, tw =
    if trace then begin
      let since = Spans.start () in
      let tw = phase img g host ~seconds:measured in
      let s = Spans.stop ~ops:[ "posix.resolve" ] ~since () in
      let n = Samples.length tw.samples in
      ( Some (Common.span_fields s, n, float_of_int n /. tw.wall),
        Some (tw, List.assoc "posix.resolve" s.Spans.durations) )
    end
    else (None, None)
  in
  close img;
  let windows = warm :: w :: Option.to_list (Option.map fst tw) in
  let attempted = List.fold_left (fun acc x -> acc + Samples.length x.samples) 0 windows in
  let failed = List.fold_left (fun acc x -> acc + x.failed) 0 windows in
  let classes =
    Report.class_metrics
      (List.map
         (fun k -> (kind_name k, Samples.latencies ~cls:(cls k) w.samples))
         [ Lookup; Path_read; Search ])
  in
  let layers =
    Report.
      [
        m "pathcache.hit_ratio" "ratio" (Stat.per hits (hits + misses));
        m "posix.resolve_p50_us" "us"
          (match tw with Some (_, resolves) -> Stat.median resolves | None -> 0.0);
      ]
    @ Common.process_layers ~ops counters ma mb
    @ Common.trace_layers ~ops_per_s:rate traced
  in
  {
    Report.attempted;
    failed;
    checks =
      ("live pages >= 4 x cache_pages", live >= 4 * cache_pages)
      :: Common.trace_checks (Option.map (fun (c, _, _) -> Common.field c "trace.dropped") traced);
    end_to_end = Common.end_to_end ~setup_s ~ops_per_s ~op_p50 counters;
    detail =
      Common.host_detail host w.samples ~raw_wall:w.raw_wall
      @ Report.m "live_pages" "pages" (float_of_int live)
      :: Report.m "cache_pages" "pages" (float_of_int cache_pages)
      :: classes;
    layers;
  }
