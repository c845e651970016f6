(* Tests for Hfad_metrics: Counter, Registry, Histogram quantile edges,
   and the Prometheus text exposition round-trip. *)

open Hfad_metrics

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let test_counter_basics () =
  let c = Counter.make "x" in
  check Alcotest.string "name" "x" (Counter.name c);
  check Alcotest.int "initial" 0 (Counter.get c);
  Counter.incr c;
  Counter.incr c;
  Counter.add c 5;
  check Alcotest.int "after ops" 7 (Counter.get c);
  Counter.reset c;
  check Alcotest.int "after reset" 0 (Counter.get c)

let test_counter_pp () =
  let c = Counter.make "hits" in
  Counter.add c 3;
  check Alcotest.string "pp" "hits=3" (Format.asprintf "%a" Counter.pp c)

let test_counter_parallel () =
  let c = Counter.make "p" in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Counter.incr c
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.int "no lost updates" 40_000 (Counter.get c)

let test_registry_same_counter () =
  let r = Registry.create () in
  let a = Registry.counter r "foo" in
  let b = Registry.counter r "foo" in
  Counter.incr a;
  check Alcotest.int "aliased" 1 (Counter.get b)

let test_registry_counters_sorted () =
  let r = Registry.create () in
  Counter.add (Registry.counter r "b") 2;
  Counter.add (Registry.counter r "a") 1;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted" [ ("a", 1); ("b", 2) ] (Registry.counters r)

let test_registry_snapshot_diff () =
  let r = Registry.create () in
  let a = Registry.counter r "a" in
  Counter.add a 10;
  let snap = Registry.snapshot r in
  Counter.add a 5;
  Counter.add (Registry.counter r "new") 3;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "delta" [ ("a", 5); ("new", 3) ] (Registry.diff r snap);
  (* zero deltas omitted *)
  let snap2 = Registry.snapshot r in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "empty delta" [] (Registry.diff r snap2)

let test_registry_reset_all () =
  let r = Registry.create () in
  Counter.add (Registry.counter r "a") 4;
  Counter.add (Registry.counter r "b") 2;
  Registry.reset_all r;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "all zero" [ ("a", 0); ("b", 0) ] (Registry.counters r)

(* --- histogram quantile edges -------------------------------------------- *)

let test_quantile_empty () =
  let h = Histogram.make ~registry:(Registry.create ()) "empty" in
  check Alcotest.int "empty p50" 0 (Histogram.quantile h 0.5);
  check Alcotest.int "empty p99" 0 (Histogram.quantile h 0.99);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Histogram.mean h)

let test_quantile_all_overflow () =
  let h =
    Histogram.make ~registry:(Registry.create ()) ~bounds:[| 10; 100 |] "ovf"
  in
  Histogram.observe h 1_000;
  Histogram.observe h 2_000;
  check Alcotest.int "overflow reports max_int" max_int (Histogram.quantile h 0.5);
  check Alcotest.int "count" 2 (Histogram.count h);
  check Alcotest.int "sum" 3_000 (Histogram.sum h)

let test_quantile_exact_boundary () =
  let h =
    Histogram.make ~registry:(Registry.create ()) ~bounds:[| 10; 100; 1000 |] "b"
  in
  (* Bounds are inclusive: an observation AT the bound lands in it. *)
  Histogram.observe h 10;
  check Alcotest.int "at-bound obs lands in bucket" 10 (Histogram.quantile h 1.0);
  (* Four observations, one per region: cumulative counts hit q*count
     exactly at each bucket edge. *)
  Histogram.observe h 100;
  Histogram.observe h 1000;
  Histogram.observe h 1001;
  check Alcotest.int "p25 = first bound" 10 (Histogram.quantile h 0.25);
  check Alcotest.int "p50 = second bound" 100 (Histogram.quantile h 0.5);
  check Alcotest.int "p75 = third bound" 1000 (Histogram.quantile h 0.75);
  check Alcotest.int "p100 overflows" max_int (Histogram.quantile h 1.0)

(* --- snapshot accessor (the STATS frame's reader) ------------------------- *)

let test_snapshot_empty () =
  let h = Histogram.make ~registry:(Registry.create ()) "snap.empty" in
  let s = Histogram.snapshot h in
  check Alcotest.int "count" 0 s.Histogram.count;
  check Alcotest.int "sum" 0 s.Histogram.sum;
  check Alcotest.int "p50" 0 s.Histogram.p50;
  check Alcotest.int "p90" 0 s.Histogram.p90;
  check Alcotest.int "p99" 0 s.Histogram.p99

let test_snapshot_single_bucket () =
  (* Everything in one bucket: every quantile is that bucket's bound. *)
  let h =
    Histogram.make ~registry:(Registry.create ()) ~bounds:[| 10; 100 |]
      "snap.one"
  in
  Histogram.observe h 3;
  Histogram.observe h 7;
  Histogram.observe h 10;
  let s = Histogram.snapshot h in
  check Alcotest.int "count" 3 s.Histogram.count;
  check Alcotest.int "sum" 20 s.Histogram.sum;
  check Alcotest.int "p50" 10 s.Histogram.p50;
  check Alcotest.int "p90" 10 s.Histogram.p90;
  check Alcotest.int "p99" 10 s.Histogram.p99

let test_snapshot_inf_bucket () =
  (* Mass split across a real bucket and overflow: the tail quantiles
     must report the overflow marker, not a fabricated bound. *)
  let h =
    Histogram.make ~registry:(Registry.create ()) ~bounds:[| 10 |] "snap.inf"
  in
  Histogram.observe h 1;
  Histogram.observe h 999;
  let s = Histogram.snapshot h in
  check Alcotest.int "count" 2 s.Histogram.count;
  check Alcotest.int "p50 in the real bucket" 10 s.Histogram.p50;
  check Alcotest.int "p90 overflows" max_int s.Histogram.p90;
  check Alcotest.int "p99 overflows" max_int s.Histogram.p99;
  (* All-overflow: even p50 is past the last bound. *)
  let h2 =
    Histogram.make ~registry:(Registry.create ()) ~bounds:[| 10 |] "snap.inf2"
  in
  Histogram.observe h2 11;
  let s2 = Histogram.snapshot h2 in
  check Alcotest.int "all-overflow p50" max_int s2.Histogram.p50

let test_histogram_concurrent_observe () =
  let r = Registry.create () in
  let h = Histogram.make ~registry:r ~bounds:[| 10; 100; 1000 |] "par" in
  let per_domain = 10_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Histogram.observe h ((d * per_domain) + i)
            done))
  in
  List.iter Domain.join domains;
  check Alcotest.int "no lost observations" (4 * per_domain) (Histogram.count h);
  let expect_sum = List.init (4 * per_domain) (fun i -> i + 1) |> List.fold_left ( + ) 0 in
  check Alcotest.int "no lost sum" expect_sum (Histogram.sum h);
  check Alcotest.int "quantile sees all domains" max_int (Histogram.quantile h 0.99)

(* --- Prometheus exposition ------------------------------------------------ *)

let test_prometheus_histogram_family () =
  let r = Registry.create () in
  let h = Histogram.make ~registry:r ~bounds:[| 10; 100 |] "commit.lat_us" in
  Histogram.observe h 5;
  Histogram.observe h 50;
  Histogram.observe h 5_000;
  let text = Prometheus.expose ~registry:r () in
  let samples = Prometheus.parse_text text in
  let get series =
    match List.assoc_opt series samples with
    | Some v -> v
    | None ->
        Alcotest.failf "series %S missing from:\n%s" series text
  in
  (* Buckets are cumulative in the exposition, per the Prometheus spec. *)
  check Alcotest.int "le 10" 1 (get "commit_lat_us_bucket{le=\"10\"}");
  check Alcotest.int "le 100" 2 (get "commit_lat_us_bucket{le=\"100\"}");
  check Alcotest.int "le +Inf" 3 (get "commit_lat_us_bucket{le=\"+Inf\"}");
  check Alcotest.int "count" 3 (get "commit_lat_us_count");
  check Alcotest.int "sum" 5_055 (get "commit_lat_us_sum")

(* Exposition under prefix-pool churn: per-instance families (shard<i>,
   server<N>) must appear while their prefix is held and vanish — not
   linger as stale zero series — once it is released, across repeated
   acquire/release cycles. This is the lifecycle every server start/stop
   and sharded open/close puts the global registry through. *)
let test_exposition_prefix_churn () =
  let size0 = Registry.size Registry.global in
  let live_shard0 = Prefix_pool.live "shard" in
  let live_server0 = Prefix_pool.live "server" in
  for cycle = 1 to 3 do
    let sh = Prefix_pool.acquire "shard" in
    let sv = Prefix_pool.acquire "server" in
    Counter.add
      (Registry.counter Registry.global (sh ^ ".journal.commits"))
      cycle;
    let h = Histogram.make ~bounds:[| 10; 100 |] (sv ^ ".lat_us") in
    Histogram.observe h (cycle * 10);
    let series = Prometheus.parse_text (Prometheus.expose ()) in
    (* Both families are live and round-trip with their values... *)
    check Alcotest.(option int)
      (Printf.sprintf "cycle %d: %s counter round-trips" cycle sh)
      (Some cycle)
      (List.assoc_opt (Prometheus.sanitize (sh ^ ".journal.commits")) series);
    check Alcotest.(option int)
      (Printf.sprintf "cycle %d: %s histogram count" cycle sv)
      (Some 1)
      (List.assoc_opt (Prometheus.sanitize (sv ^ ".lat_us") ^ "_count") series);
    Prefix_pool.release sh;
    Prefix_pool.release sv;
    (* ...and release leaves no stale series behind. *)
    let after = Prometheus.parse_text (Prometheus.expose ()) in
    List.iter
      (fun released ->
        let stale = Prometheus.sanitize released ^ "_" in
        check Alcotest.bool
          (Printf.sprintf "cycle %d: no stale %s* series" cycle stale)
          false
          (List.exists
             (fun (name, _) -> String.starts_with ~prefix:stale name)
             after))
      [ sh; sv ]
  done;
  check Alcotest.int "shard prefixes restored" live_shard0
    (Prefix_pool.live "shard");
  check Alcotest.int "server prefixes restored" live_server0
    (Prefix_pool.live "server");
  check Alcotest.int "registry size restored" size0
    (Registry.size Registry.global)

(* The process exposition carries the collector's counters, set from
   [Gc.quick_stat] at each scrape: an allocation loop between two
   scrapes moves them. *)
let test_exposition_gc_counters () =
  let scrape () = Prometheus.parse_text (Prometheus.expose ()) in
  let series name samples =
    match List.assoc_opt name samples with
    | Some v -> v
    | None -> Alcotest.failf "%s missing from the exposition" name
  in
  let before = scrape () in
  let keep = ref [] in
  for i = 1 to 200_000 do
    keep := [ i ];
    ignore (Sys.opaque_identity (Array.make 8 i))
  done;
  ignore (Sys.opaque_identity !keep);
  let after = scrape () in
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " grows") true
        (series name after > series name before))
    [ "gc_minor_collections"; "gc_minor_words" ];
  List.iter
    (fun name -> ignore (series name after))
    [ "gc_major_collections"; "gc_top_heap_words" ]

let prop_prometheus_roundtrip =
  QCheck.Test.make ~name:"Prometheus exposition round-trips counter values"
    ~count:100
    QCheck.(
      small_list
        (pair
           (string_of_size Gen.(1 -- 12))
           (int_bound 1_000_000)))
    (fun pairs ->
      let r = Registry.create () in
      (* Distinct registry names may sanitize to one Prometheus name, so
         compare totals per sanitized name on both sides. *)
      let tally tbl name v =
        Hashtbl.replace tbl name
          (v + try Hashtbl.find tbl name with Not_found -> 0)
      in
      let expected = Hashtbl.create 16 in
      List.iter
        (fun (name, v) ->
          let name = if name = "" then "x" else name in
          Counter.add (Registry.counter r name) v;
          tally expected (Prometheus.sanitize name) v)
        pairs;
      let got = Hashtbl.create 16 in
      List.iter
        (fun (series, v) -> tally got series v)
        (Prometheus.parse_text (Prometheus.expose ~registry:r ()));
      Hashtbl.fold
        (fun name v ok -> ok && Hashtbl.find_opt got name = Some v)
        expected true)

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counter pp" `Quick test_counter_pp;
    Alcotest.test_case "counter parallel increments" `Slow test_counter_parallel;
    Alcotest.test_case "registry aliases by name" `Quick test_registry_same_counter;
    Alcotest.test_case "registry sorted listing" `Quick test_registry_counters_sorted;
    Alcotest.test_case "registry snapshot diff" `Quick test_registry_snapshot_diff;
    Alcotest.test_case "registry reset_all" `Quick test_registry_reset_all;
    Alcotest.test_case "quantile: empty" `Quick test_quantile_empty;
    Alcotest.test_case "quantile: all overflow" `Quick test_quantile_all_overflow;
    Alcotest.test_case "quantile: exact boundary" `Quick test_quantile_exact_boundary;
    Alcotest.test_case "snapshot: empty" `Quick test_snapshot_empty;
    Alcotest.test_case "snapshot: single bucket" `Quick
      test_snapshot_single_bucket;
    Alcotest.test_case "snapshot: +Inf bucket" `Quick test_snapshot_inf_bucket;
    Alcotest.test_case "histogram concurrent observe" `Slow
      test_histogram_concurrent_observe;
    Alcotest.test_case "prometheus histogram family" `Quick
      test_prometheus_histogram_family;
    Alcotest.test_case "exposition under prefix-pool churn" `Quick
      test_exposition_prefix_churn;
    Alcotest.test_case "exposition carries GC counters" `Quick
      test_exposition_gc_counters;
    qtest prop_prometheus_roundtrip;
  ]
