(* Tests for the shard router and the sharded Fs: OID arithmetic,
   placement determinism, scatter-gather merges, the [shards = 1]
   byte-identity guarantee, logical equivalence across shard counts,
   cross-shard barriers under concurrent writers, the per-instance
   metrics prefix pool, and sharded image reopen. *)

module Device = Hfad_blockdev.Device
module Oid = Hfad_osd.Oid
module Osd = Hfad_osd.Osd
module Meta = Hfad_osd.Meta
module Tag = Hfad_index.Tag
module Query = Hfad_index.Query
module Fs = Hfad.Fs
module Flusher = Hfad.Flusher
module Router = Hfad_shard.Router
module Registry = Hfad_metrics.Registry
module Prefix_pool = Hfad_metrics.Prefix_pool

let check = Alcotest.check
let oid_t = Alcotest.testable Oid.pp Oid.equal
let qtest = QCheck_alcotest.to_alcotest
let oid i = Oid.of_int64 (Int64.of_int i)

(* --- router arithmetic ---------------------------------------------------- *)

let test_router_arithmetic () =
  List.iter
    (fun n ->
      let r = Router.create ~shards:n in
      for g = 1 to 200 do
        let o = oid g in
        let s = Router.shard_of_oid r o in
        check Alcotest.bool "shard in range" true (s >= 0 && s < n);
        check oid_t "local/global roundtrip" o
          (Router.to_global r ~shard:s (Router.to_local r o))
      done)
    [ 1; 2; 3; 4; 8 ];
  (* N = 1 is the identity: local oid = global oid, everything shard 0. *)
  let r1 = Router.create ~shards:1 in
  for g = 1 to 50 do
    check oid_t "identity local" (oid g) (Router.to_local r1 (oid g));
    check Alcotest.int "identity shard" 0 (Router.shard_of_oid r1 (oid g))
  done

let test_router_key_hash () =
  let r = Router.create ~shards:4 in
  (* Deterministic: the same key always lands on the same shard, across
     router instances. *)
  List.iter
    (fun key ->
      let s = Router.shard_of_key r key in
      check Alcotest.bool "in range" true (s >= 0 && s < 4);
      check Alcotest.int "stable across instances" s
        (Router.shard_of_key (Router.create ~shards:4) key))
    [ ""; "margo"; "nick"; "tenant00"; "a-much-longer-key-with-punct!" ];
  (* Spreads: 64 distinct keys at 4 shards must hit every shard. *)
  let hit = Array.make 4 false in
  for k = 0 to 63 do
    hit.(Router.shard_of_key r (Printf.sprintf "key%d" k)) <- true
  done;
  Array.iteri
    (fun i h -> check Alcotest.bool (Printf.sprintf "shard %d hit" i) true h)
    hit

let test_merge_sorted () =
  check
    (Alcotest.list Alcotest.int)
    "k-way merge" [ 1; 2; 3; 4; 5; 9; 10 ]
    (Router.merge_sorted ~cmp:compare [ [ 1; 4; 9 ]; [ 2; 3; 10 ]; []; [ 5 ] ]);
  check (Alcotest.list Alcotest.int) "all empty" []
    (Router.merge_sorted ~cmp:compare [ []; []; [] ])

let test_merge_ranked () =
  (* Score descending; ties broken by payload ascending. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 1e-9)))
    "ranked merge"
    [ ("a", 0.9); ("b", 0.9); ("d", 0.5); ("c", 0.2) ]
    (Router.merge_ranked [ [ ("a", 0.9); ("c", 0.2) ]; [ ("b", 0.9); ("d", 0.5) ] ])

let prop_router_roundtrip =
  QCheck.Test.make ~count:500
    ~name:"router placement is deterministic and roundtrips at every count"
    QCheck.(pair (int_range 1 64) (int_range 1 1_000_000))
    (fun (n, g) ->
      let r = Router.create ~shards:n in
      let o = oid g in
      let s = Router.shard_of_oid r o in
      s >= 0 && s < n
      && s = Router.shard_of_oid r o
      && Oid.equal o (Router.to_global r ~shard:s (Router.to_local r o)))

(* --- shards = 1 byte-identity --------------------------------------------- *)

(* A random mutation script, applied identically to two instances. *)
type op =
  | Create of string * string option
  | Write of int * int * string
  | Delete of int

let apply_script fs script =
  let oids = ref [] in
  List.iter
    (fun o ->
      match o with
      | Create (content, name) ->
          let names =
            match name with None -> [] | Some v -> [ (Tag.Udef, v) ]
          in
          oids := Fs.create_exn fs ~names ~content :: !oids
      | Write (i, off, data) -> (
          match List.nth_opt !oids (i mod max 1 (List.length !oids)) with
          | Some o when Fs.exists fs o ->
              Fs.write_exn fs o ~off:(off mod (Fs.size fs o + 1)) data
          | Some _ | None -> ())
      | Delete i -> (
          match List.nth_opt !oids (i mod max 1 (List.length !oids)) with
          | Some o when Fs.exists fs o -> Fs.delete_exn fs o
          | Some _ | None -> ()))
    script;
  List.rev !oids

let script_gen =
  let open QCheck.Gen in
  let letter = map (fun i -> Char.chr (97 + i)) (int_bound 25) in
  let word lo hi = string_size ~gen:letter (lo -- hi) in
  (* Indexed content: keep the words short enough for the fulltext
     postings keys of a 512-byte-block btree. *)
  let text lo hi =
    map (String.concat " ") (list_size (lo -- hi) (word 1 12))
  in
  let op =
    frequency
      [
        (4, map2 (fun c n -> Create (c, n)) (text 0 6) (opt (word 1 8)));
        (3, map3 (fun i off d -> Write (i, off, d)) (0 -- 15) (0 -- 256) (text 1 4));
        (1, map (fun i -> Delete i) (0 -- 15));
      ]
  in
  QCheck.make
    ~print:(fun s -> Printf.sprintf "<script of %d ops>" (List.length s))
    (list_size (0 -- 32) op)

let image_bytes dev =
  let path = Filename.temp_file "hfad_shard" ".img" in
  Device.save dev path;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

(* [shards = 1] must take the seed's code path verbatim: no shard map
   block, no translation — the image a 1-shard instance produces is
   byte-for-byte the image the unsharded configuration produces. *)
let prop_shards1_byte_identical =
  QCheck.Test.make ~count:25
    ~name:"shards=1 produces a byte-identical image to the unsharded path"
    script_gen
    (fun script ->
      let run config =
        Meta.reset_logical_clock ();
        let dev = Device.create ~block_size:512 ~blocks:4096 () in
        let fs = Fs.format ~config dev in
        ignore (apply_script fs script);
        Fs.sync_exn ~mode:`Checkpoint fs;
        Fs.close fs;
        image_bytes dev
      in
      let cfg ?shards () =
        Fs.Config.v ~cache_pages:128 ~index_mode:Fs.Eager ~journal_pages:64
          ?shards ()
      in
      String.equal (run (cfg ())) (run (cfg ~shards:1 ())))

(* And the raw, router-free OSD opens a 1-shard image directly: the
   superblock sits at block 0 exactly as the seed wrote it. *)
let test_shards1_raw_osd_open () =
  let dev = Device.create ~block_size:512 ~blocks:4096 () in
  let fs =
    Fs.format
      ~config:(Fs.Config.v ~index_mode:Fs.Off ~journal_pages:64 ~shards:1 ())
      dev
  in
  let o = Fs.create_exn fs ~content:"visible to the raw osd" in
  Fs.sync_exn ~mode:`Checkpoint fs;
  Fs.close fs;
  let path = Filename.temp_file "hfad_shard" ".img" in
  Device.save dev path;
  let osd = Osd.open_existing_exn (Device.load path) in
  Sys.remove path;
  check Alcotest.bool "object exists under its global oid" true
    (Osd.exists osd o);
  check Alcotest.string "content" "visible to the raw osd"
    (Osd.read_all osd o)

(* --- logical equivalence across shard counts ------------------------------ *)

let owners = [| "margo"; "nick"; "lex"; "kiran" |]
let albums = [| "y2008"; "y2009"; "hawaii"; "boston" |]

let populate fs =
  Array.init 24 (fun i ->
      Fs.create_exn fs
        ~names:
          [
            (Tag.User, owners.(i mod 4));
            (Tag.Udef, albums.(i mod 3));
            (Tag.App, Printf.sprintf "app%02d" i);
          ]
        ~content:
          (Printf.sprintf "object %d %s holiday %s" i
             owners.(i mod 4)
             (if i mod 2 = 0 then "beach sunset" else "city lights")))

let mutate fs oids =
  Array.iteri
    (fun i o ->
      if i mod 5 = 0 then Fs.write_exn fs o ~off:0 "OBJECT"
      else if i mod 7 = 0 then Fs.delete_exn fs o)
    oids

(* Map results back to creation order so instances with different OID
   assignments compare structurally. *)
let indices_of oids result =
  List.filter_map
    (fun o ->
      let found = ref None in
      Array.iteri (fun i o' -> if Oid.equal o o' then found := Some i) oids;
      !found)
    result
  |> List.sort compare

let test_sharded_equivalence () =
  let mk shards =
    let dev = Device.create ~block_size:1024 ~blocks:16384 () in
    let fs =
      Fs.format
        ~config:(Fs.Config.v ~cache_pages:512 ~index_mode:Fs.Eager ~shards ())
        dev
    in
    let oids = populate fs in
    mutate fs oids;
    (fs, oids)
  in
  let a, aoids = mk 1 in
  let b, boids = mk 4 in
  check Alcotest.int "object_count" (Fs.object_count a) (Fs.object_count b);
  check Alcotest.int "shard_count a" 1 (Fs.shard_count a);
  check Alcotest.int "shard_count b" 4 (Fs.shard_count b);
  (* Same per-object state, keyed by creation order. *)
  Array.iteri
    (fun i ao ->
      let bo = boids.(i) in
      check Alcotest.bool "liveness agrees" (Fs.exists a ao) (Fs.exists b bo);
      if Fs.exists a ao then begin
        check Alcotest.string "content" (Fs.read_all a ao) (Fs.read_all b bo);
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "names"
          (List.sort compare
             (List.map (fun (t, v) -> (Tag.to_string t, v)) (Fs.names_of a ao)))
          (List.sort compare
             (List.map (fun (t, v) -> (Tag.to_string t, v)) (Fs.names_of b bo)))
      end)
    aoids;
  (* Same answers for naming, boolean queries, search and enumeration. *)
  let same_lookup pairs =
    check
      (Alcotest.list Alcotest.int)
      (Printf.sprintf "lookup %s"
         (String.concat "," (List.map snd pairs)))
      (indices_of aoids (Fs.lookup a pairs))
      (indices_of boids (Fs.lookup b pairs))
  in
  Array.iter (fun u -> same_lookup [ (Tag.User, u) ]) owners;
  Array.iter (fun al -> same_lookup [ (Tag.Udef, al) ]) albums;
  same_lookup [ (Tag.User, "margo"); (Tag.Udef, "y2008") ];
  List.iter
    (fun q ->
      check
        (Alcotest.list Alcotest.int)
        (Printf.sprintf "query %S" q)
        (indices_of aoids (Fs.query_string a q))
        (indices_of boids (Fs.query_string b q)))
    [
      "USER/margo | USER/nick";
      "UDEF/y2008 & !APP/app00";
      "USER/lex & (UDEF/y2009 | UDEF/hawaii)";
    ];
  check
    (Alcotest.list Alcotest.int)
    "search result set"
    (indices_of aoids (List.map fst (Fs.search a "beach sunset")))
    (indices_of boids (List.map fst (Fs.search b "beach sunset")));
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "list_names"
    (List.map
       (fun (v, o) -> (v, List.hd (indices_of aoids [ o ])))
       (Fs.list_names a Tag.User ~prefix:""))
    (List.map
       (fun (v, o) -> (v, List.hd (indices_of boids [ o ])))
       (Fs.list_names b Tag.User ~prefix:""));
  Fs.verify a;
  Fs.verify b;
  Fs.close a;
  Fs.close b

(* --- scatter-gather ordering and Id routing ------------------------------- *)

let test_scatter_gather_order () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  let fs =
    Fs.format
      ~config:(Fs.Config.v ~cache_pages:512 ~index_mode:Fs.Eager ~shards:4 ())
      dev
  in
  let oids = populate fs in
  (* Merged lookups come back in ascending GLOBAL oid order even though
     every shard answered in its own local order. *)
  let l = Fs.lookup fs [ (Tag.Udef, albums.(0)) ] in
  check Alcotest.bool "lookup non-trivial" true (List.length l > 1);
  check (Alcotest.list oid_t) "ascending oids" (List.sort Oid.compare l) l;
  (* Ranked search: scores never increase down the merged list. *)
  let ranked = Fs.search fs "holiday" in
  check Alcotest.bool "search non-trivial" true (List.length ranked > 1);
  let rec descending = function
    | (_, s1) :: ((_, s2) :: _ as rest) -> s1 >= s2 && descending rest
    | _ -> true
  in
  check Alcotest.bool "scores descending" true (descending ranked);
  (* Range enumeration: merged (value, oid) ascending. *)
  let names = Fs.list_names fs Tag.App ~prefix:"app" in
  check Alcotest.int "all apps enumerated" 24 (List.length names);
  check Alcotest.bool "sorted by value" true
    (List.sort compare names = names);
  (* An Id conjunct pins the query to the owner shard and stays
     correct: the pair matches only its own object... *)
  let o7 = oids.(7) in
  check (Alcotest.list oid_t) "id conjunction"
    [ o7 ]
    (Fs.lookup fs [ (Tag.Id, Oid.to_string o7); (Tag.User, owners.(7 mod 4)) ]);
  (* ... two different Ids can never conjoin, even when their LOCAL
     oids coincide on different shards ... *)
  check (Alcotest.list oid_t) "two ids = empty" []
    (Fs.lookup fs
       [ (Tag.Id, Oid.to_string oids.(4)); (Tag.Id, Oid.to_string oids.(5)) ]);
  (* ... and a negated Id excludes exactly that object everywhere. *)
  let all = Fs.query_string fs (Printf.sprintf "USER/%s" owners.(3)) in
  let minus =
    Fs.query fs
      (Query.And
         [
           Query.Pair (Tag.User, owners.(3));
           Query.Not (Query.Pair (Tag.Id, Oid.to_string oids.(3)));
         ])
  in
  check (Alcotest.list oid_t) "negated id"
    (List.filter (fun o -> not (Oid.equal o oids.(3))) all)
    minus;
  Fs.verify fs;
  Fs.close fs

(* --- sharded image reopen ------------------------------------------------- *)

let test_sharded_save_load_reopen () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  let fs =
    Fs.format
      ~config:
        (Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:64 ~shards:4 ())
      dev
  in
  let oids = populate fs in
  let homes = Array.map (Fs.shard_of_oid fs) oids in
  Fs.sync_exn ~mode:`Checkpoint fs;
  Fs.close fs;
  let path = Filename.temp_file "hfad_shard" ".img" in
  Device.save dev path;
  let dev2 = Device.load path in
  Sys.remove path;
  (* The shard map, not the caller's config, decides the layout. *)
  let fs2 =
    Fs.open_existing_exn ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) dev2
  in
  check Alcotest.int "shard count restored" 4 (Fs.shard_count fs2);
  check Alcotest.int "config reflects image" 4 (Fs.config fs2).Fs.Config.shards;
  Array.iteri
    (fun i o ->
      check Alcotest.bool "object survives" true (Fs.exists fs2 o);
      check Alcotest.int "same shard" homes.(i) (Fs.shard_of_oid fs2 o))
    oids;
  check Alcotest.string "content survives"
    (Printf.sprintf "object 11 %s holiday city lights" owners.(11 mod 4))
    (Fs.read_all fs2 oids.(11));
  Fs.verify fs2;
  Fs.close fs2

(* --- concurrent cross-shard barriers -------------------------------------- *)

(* Four writer domains hammer four objects (one per shard) while the
   main domain issues barriers. The global barrier promise: a barrier
   never returns before every mutation acknowledged on ANY shard at the
   time of the call is durable on ITS shard. *)
let test_concurrent_cross_shard_barrier () =
  let dev = Device.create ~block_size:512 ~blocks:32768 () in
  let fs =
    Fs.format
      ~config:
        (Fs.Config.v ~cache_pages:1024 ~index_mode:Fs.Off ~journal_pages:128
           ~batch_max_pages:1_000_000 ~batch_max_age:3600.0 ~shards:4 ())
      dev
  in
  (* Round-robin placement: creation order pins object i to shard i. *)
  let oids = Array.init 4 (fun i -> ignore i; Fs.create_exn fs ~content:"seed") in
  Array.iteri
    (fun i o -> check Alcotest.int "one object per shard" i (Fs.shard_of_oid fs o))
    oids;
  Fs.sync_exn ~mode:`Checkpoint fs;
  Fs.start_pipeline fs;
  let ops_per_writer = 400 in
  let writers =
    List.init 4 (fun w ->
        Domain.spawn (fun () ->
            for i = 0 to ops_per_writer - 1 do
              Fs.write_exn fs oids.(w) ~off:((i * 7) mod 500)
                (Printf.sprintf "w%d-%04d" w i);
              if i land 15 = 15 then Thread.yield ()
            done))
  in
  let acked_before () =
    Array.init 4 (fun s ->
        match Fs.shard_pipeline_stats fs s with
        | Some st -> st.Flusher.acked
        | None -> 0)
  in
  for _ = 1 to 16 do
    let before = acked_before () in
    Fs.sync_exn fs;
    for s = 0 to 3 do
      match Fs.shard_pipeline_stats fs s with
      | Some st ->
          if st.Flusher.durable < before.(s) then
            Alcotest.failf
              "barrier returned with shard %d durable=%d < acked-before=%d" s
              st.Flusher.durable before.(s)
      | None -> Alcotest.fail "pipeline vanished mid-run"
    done;
    Thread.yield ()
  done;
  List.iter Domain.join writers;
  let before = acked_before () in
  Fs.sync_exn fs;
  Array.iteri
    (fun s acked ->
      match Fs.shard_pipeline_stats fs s with
      | Some st ->
          check Alcotest.bool
            (Printf.sprintf "final barrier covers shard %d" s)
            true
            (st.Flusher.durable >= acked && acked >= ops_per_writer)
      | None -> Alcotest.fail "pipeline vanished at the end")
    before;
  Fs.stop_pipeline fs;
  Array.iteri
    (fun w o ->
      check Alcotest.string "last write visible"
        (Printf.sprintf "w%d-%04d" w (ops_per_writer - 1))
        (Fs.read fs o
           ~off:(((ops_per_writer - 1) * 7) mod 500)
           ~len:7))
    oids;
  Fs.verify fs;
  Fs.close fs

(* --- metrics prefix pool audit -------------------------------------------- *)

let test_metrics_prefix_audit () =
  let mk () =
    let dev = Device.create ~block_size:512 ~blocks:8192 () in
    Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Off ~shards:4 ()) dev
  in
  let baseline = Registry.size Registry.global in
  let live_fs = Prefix_pool.live "fs" in
  let live_pager = Prefix_pool.live "pager" in
  (* Two live sharded instances: distinct prefixes, distinct counters. *)
  let a = mk () in
  let b = mk () in
  let pa = Option.get (Fs.metrics_prefix a) in
  let pb = Option.get (Fs.metrics_prefix b) in
  check Alcotest.bool "distinct prefixes" true (pa <> pb);
  check Alcotest.int "two live fs prefixes" (live_fs + 2)
    (Prefix_pool.live "fs");
  check Alcotest.int "eight live pagers" (live_pager + 8)
    (Prefix_pool.live "pager");
  check Alcotest.bool "per-shard counters registered" true
    (Registry.size Registry.global > baseline);
  (* An unsharded instance publishes no pooled fs prefix at all. *)
  let dev1 = Device.create ~block_size:512 ~blocks:4096 () in
  let c = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Off ()) dev1 in
  check (Alcotest.option Alcotest.string) "unsharded = no prefix" None
    (Fs.metrics_prefix c);
  Fs.close a;
  Fs.close b;
  Fs.close c;
  check Alcotest.int "fs prefixes released" live_fs (Prefix_pool.live "fs");
  check Alcotest.int "pager prefixes released" live_pager
    (Prefix_pool.live "pager");
  (* Open/close churn neither grows the registry nor leaks ids: the
     audit the pool exists for. *)
  for _ = 1 to 5 do
    let fs = mk () in
    Fs.close fs
  done;
  check Alcotest.int "registry size restored" baseline
    (Registry.size Registry.global);
  check Alcotest.int "no leaked fs ids" live_fs (Prefix_pool.live "fs");
  check Alcotest.int "no leaked pager ids" live_pager
    (Prefix_pool.live "pager");
  (* PR 7: the resolution caches pool their own "pathcache" prefixes —
     one per hierfs shard, one per veneer mount. The same churn audit
     must hold with their gauges live. *)
  let module H = Hfad_hierfs.Hierfs in
  let module P = Hfad_posix.Posix_fs in
  let live_pc = Prefix_pool.live "pathcache" in
  let baseline_pc = Registry.size Registry.global in
  let hdev = Device.create ~block_size:512 ~blocks:65536 () in
  let h = H.format ~config:(H.Config.v ~cache_pages:128 ~shards:4 ()) hdev in
  check Alcotest.int "one pathcache prefix per hierfs shard" (live_pc + 4)
    (Prefix_pool.live "pathcache");
  let pdev = Device.create ~block_size:512 ~blocks:8192 () in
  let pfs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Off ()) pdev in
  let p = P.mount pfs in
  check Alcotest.int "one more for the veneer mount" (live_pc + 5)
    (Prefix_pool.live "pathcache");
  (* exercise the gauges so the audit covers non-zero counters *)
  H.mkdir_p h "/w/x";
  ignore (H.resolve h "/w/x");
  ignore (H.resolve h "/w/x");
  P.mkdir_p_exn p "/w";
  check Alcotest.bool "veneer cache warm" true (P.exists p "/w");
  H.close h;
  P.unmount p;
  Fs.close pfs;
  check Alcotest.int "pathcache prefixes released" live_pc
    (Prefix_pool.live "pathcache");
  check Alcotest.int "pathcache gauges purged" baseline_pc
    (Registry.size Registry.global);
  (* close is idempotent; a second release must not free a prefix a new
     instance has since acquired *)
  H.close h;
  P.unmount p;
  for _ = 1 to 3 do
    let d = Device.create ~block_size:512 ~blocks:65536 () in
    let h = H.format ~config:(H.Config.v ~cache_pages:128 ~shards:4 ()) d in
    H.close h
  done;
  check Alcotest.int "hierfs churn leaks no pathcache ids" live_pc
    (Prefix_pool.live "pathcache")

let suite =
  [
    Alcotest.test_case "router oid arithmetic" `Quick test_router_arithmetic;
    Alcotest.test_case "router key hashing" `Quick test_router_key_hash;
    Alcotest.test_case "merge_sorted" `Quick test_merge_sorted;
    Alcotest.test_case "merge_ranked" `Quick test_merge_ranked;
    qtest prop_router_roundtrip;
    qtest prop_shards1_byte_identical;
    Alcotest.test_case "shards=1 image opens with the raw osd" `Quick
      test_shards1_raw_osd_open;
    Alcotest.test_case "1-shard and 4-shard instances agree" `Quick
      test_sharded_equivalence;
    Alcotest.test_case "scatter-gather ordering and id routing" `Quick
      test_scatter_gather_order;
    Alcotest.test_case "sharded image save/load/reopen" `Quick
      test_sharded_save_load_reopen;
    Alcotest.test_case "concurrent cross-shard barriers" `Quick
      test_concurrent_cross_shard_barrier;
    Alcotest.test_case "metrics prefix pool audit" `Quick
      test_metrics_prefix_audit;
  ]
