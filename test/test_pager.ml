(* Tests for Hfad_pager.Pager: caching, write-back, pinning, stats. *)

module Device = Hfad_blockdev.Device
module Pager = Hfad_pager.Pager

let check = Alcotest.check

let mk ?(cache_pages = 4) ?(block_size = 64) ?(blocks = 32) ?policy ?kin ?kout
    ?no_steal () =
  let dev = Device.create ~block_size ~blocks () in
  (dev, Pager.create ~cache_pages ?policy ?kin ?kout ?no_steal dev)

let test_geometry () =
  let _, p = mk ~block_size:128 ~blocks:8 () in
  check Alcotest.int "page size" 128 (Pager.page_size p);
  check Alcotest.int "pages" 8 (Pager.pages p)

let test_read_through () =
  let dev, p = mk () in
  Device.write_block dev 3 (Bytes.make 64 'q');
  Pager.with_page p 3 (fun page ->
      check Alcotest.bytes "content" (Bytes.make 64 'q') (Bytes.copy page))

let test_cache_hit_avoids_device () =
  let dev, p = mk () in
  Pager.with_page p 0 ignore;
  let before = (Device.stats dev).Device.reads in
  Pager.with_page p 0 ignore;
  Pager.with_page p 0 ignore;
  check Alcotest.int "no extra device reads" before (Device.stats dev).Device.reads;
  let s = Pager.stats p in
  check Alcotest.int "hits" 2 s.Pager.hits;
  check Alcotest.int "misses" 1 s.Pager.misses

let test_dirty_write_back_on_flush () =
  let dev, p = mk () in
  Pager.with_page_mut p 2 (fun page -> Bytes.fill page 0 64 'd');
  check Alcotest.bytes "not on device yet" (Bytes.make 64 '\000')
    (Device.read_block dev 2);
  Pager.flush p;
  check Alcotest.bytes "flushed" (Bytes.make 64 'd') (Device.read_block dev 2)

let test_eviction_writes_back () =
  let dev, p = mk ~cache_pages:2 () in
  Pager.with_page_mut p 0 (fun page -> Bytes.fill page 0 64 'a');
  (* Touch two more pages to evict page 0 from a 2-frame cache. *)
  Pager.with_page p 1 ignore;
  Pager.with_page p 2 ignore;
  check Alcotest.bytes "evicted dirty page reached device" (Bytes.make 64 'a')
    (Device.read_block dev 0)

let test_lru_eviction_order () =
  let dev, p = mk ~cache_pages:2 ~policy:`Lru () in
  Pager.with_page p 0 ignore;
  Pager.with_page p 1 ignore;
  Pager.with_page p 0 ignore;  (* page 0 is now most recently used *)
  Pager.with_page p 2 ignore;  (* should evict page 1, not page 0 *)
  Device.reset_stats dev;
  Pager.with_page p 0 ignore;  (* hit *)
  check Alcotest.int "page 0 still cached" 0 (Device.stats dev).Device.reads;
  Pager.with_page p 1 ignore;  (* miss *)
  check Alcotest.int "page 1 was evicted" 1 (Device.stats dev).Device.reads

let test_nested_pins_same_page () =
  let _, p = mk () in
  Pager.with_page p 0 (fun outer ->
      Pager.with_page p 0 (fun inner ->
          check Alcotest.bool "same frame" true (outer == inner)))

let test_cache_full_when_all_pinned () =
  let _, p = mk ~cache_pages:2 () in
  Pager.with_page p 0 (fun _ ->
      Pager.with_page p 1 (fun _ ->
          Alcotest.check_raises "third page" (Pager.Cache_full Pager.All_pinned)
            (fun () -> Pager.with_page p 2 ignore)))

let test_zero_page () =
  let dev, p = mk () in
  Device.write_block dev 4 (Bytes.make 64 'x');
  Device.reset_stats dev;
  Pager.zero_page p 4;
  (* zero_page must not read the old content from the device *)
  check Alcotest.int "no device read" 0 (Device.stats dev).Device.reads;
  Pager.with_page p 4 (fun page ->
      check Alcotest.bytes "zeroed" (Bytes.make 64 '\000') (Bytes.copy page));
  Pager.flush p;
  check Alcotest.bytes "zero persisted" (Bytes.make 64 '\000')
    (Device.read_block dev 4)

let test_invalidate_drops_clean () =
  let dev, p = mk () in
  Pager.with_page p 0 ignore;
  Pager.invalidate p;
  Device.reset_stats dev;
  Pager.with_page p 0 ignore;
  check Alcotest.int "reloaded from device" 1 (Device.stats dev).Device.reads

let test_invalidate_preserves_dirty_data () =
  let dev, p = mk () in
  Pager.with_page_mut p 1 (fun page -> Bytes.fill page 0 64 'k');
  Pager.invalidate p;
  check Alcotest.bytes "dirty written back" (Bytes.make 64 'k')
    (Device.read_block dev 1)

let test_mutation_visible_after_eviction_cycle () =
  let _, p = mk ~cache_pages:2 () in
  Pager.with_page_mut p 0 (fun page -> Bytes.fill page 0 64 'v');
  Pager.with_page p 1 ignore;
  Pager.with_page p 2 ignore;
  Pager.with_page p 3 ignore;
  Pager.with_page p 0 (fun page ->
      check Alcotest.bytes "round-tripped through device" (Bytes.make 64 'v')
        (Bytes.copy page))

let test_stats_reset () =
  let _, p = mk () in
  Pager.with_page p 0 ignore;
  Pager.reset_stats p;
  let s = Pager.stats p in
  check Alcotest.int "reads" 0 s.Pager.reads;
  check Alcotest.int "misses" 0 s.Pager.misses

let test_exception_in_callback_unpins () =
  let _, p = mk ~cache_pages:2 () in
  (try Pager.with_page p 0 (fun _ -> failwith "boom") with Failure _ -> ());
  (* If the pin leaked, filling the cache would raise Cache_full. *)
  Pager.with_page p 1 ignore;
  Pager.with_page p 2 ignore;
  Pager.with_page p 3 ignore

(* --- replacement policy ------------------------------------------------- *)

let test_twoq_probation_evicted_first () =
  (* 2Q with kin=1: a re-referenced probationary page does NOT gain
     recency (A1in is a FIFO), so the oldest arrival goes first. *)
  let dev, p = mk ~cache_pages:2 ~policy:`Twoq ~kin:1 ~kout:4 () in
  Pager.with_page p 0 ignore;
  Pager.with_page p 1 ignore;
  Pager.with_page p 0 ignore;  (* probation hit: must not reorder *)
  Pager.with_page p 2 ignore;  (* evicts page 0, the oldest arrival *)
  Device.reset_stats dev;
  Pager.with_page p 1 ignore;  (* still resident *)
  check Alcotest.int "page 1 survived" 0 (Device.stats dev).Device.reads;
  Pager.with_page p 0 ignore;  (* was evicted (and ghosted) *)
  check Alcotest.int "page 0 was evicted" 1 (Device.stats dev).Device.reads

let test_ghost_promotion_survives_scan () =
  (* The 2Q headline: a page that comes back after eviction is promoted
     into Am, and a later sequential scan cannot displace it. *)
  let dev, p = mk ~cache_pages:4 ~blocks:32 ~policy:`Twoq ~kin:1 ~kout:8 () in
  Pager.with_page p 0 ignore;
  (* Scan wider than the cache: flushes page 0 out of probation. *)
  for n = 10 to 17 do
    Pager.with_page p n ignore
  done;
  Pager.with_page p 0 ignore;  (* ghost hit -> promoted to Am *)
  let s = Pager.stats p in
  check Alcotest.bool "ghost hit recorded" true (s.Pager.ghost_hits >= 1);
  (* Second scan: probationary traffic streams through A1in. *)
  for n = 20 to 27 do
    Pager.with_page p n ignore
  done;
  Device.reset_stats dev;
  Pager.with_page p 0 ignore;
  check Alcotest.int "protected page survived the scan" 0
    (Device.stats dev).Device.reads;
  let occ = Pager.occupancy p in
  check Alcotest.bool "page 0 is in Am" true (occ.Pager.am >= 1);
  check Alcotest.bool "scan traffic was evicted from probation" true
    (Pager.scan_resistance p > 0.9)

let test_lru_scan_flushes_hot_page () =
  (* Control for the previous test: under LRU the same trace loses the
     hot page to the scan. *)
  let dev, p = mk ~cache_pages:4 ~blocks:32 ~policy:`Lru () in
  Pager.with_page p 0 ignore;
  for n = 10 to 17 do
    Pager.with_page p n ignore
  done;
  Device.reset_stats dev;
  Pager.with_page p 0 ignore;
  check Alcotest.int "hot page was scanned out" 1 (Device.stats dev).Device.reads

let test_no_steal_all_dirty_reason () =
  (* Every frame unpinned but dirty under NO-STEAL: the payload must say
     a checkpoint (not a pin hunt) is the remedy, and a flush must make
     the cache usable again. *)
  let _, p = mk ~cache_pages:2 ~no_steal:true () in
  Pager.with_page_mut p 0 (fun page -> Bytes.fill page 0 64 'a');
  Pager.with_page_mut p 1 (fun page -> Bytes.fill page 0 64 'b');
  Alcotest.check_raises "all dirty" (Pager.Cache_full Pager.Dirty_no_steal)
    (fun () -> Pager.with_page p 2 ignore);
  Pager.flush p;
  Pager.with_page p 2 ignore

let test_dirty_blocked_reported_over_pinned () =
  (* One frame pinned, one unpinned-but-dirty: eviction is blocked by the
     NO-STEAL invariant, so that's the reported reason. *)
  let _, p = mk ~cache_pages:2 ~no_steal:true () in
  Pager.with_page_mut p 0 (fun page -> Bytes.fill page 0 64 'x');
  Pager.with_page p 1 (fun _ ->
      Alcotest.check_raises "dirty blocks" (Pager.Cache_full Pager.Dirty_no_steal)
        (fun () -> Pager.with_page p 2 ignore))

let test_per_pager_metrics_registered () =
  let _, p = mk ~cache_pages:2 ~policy:`Twoq ~kin:1 () in
  for n = 0 to 7 do
    Pager.with_page p n ignore
  done;
  let prefix = Pager.metrics_prefix p in
  let counters = Hfad_metrics.Registry.counters Hfad_metrics.Registry.global in
  let get name =
    match List.assoc_opt (prefix ^ "." ^ name) counters with
    | Some v -> v
    | None -> Alcotest.failf "counter %s.%s not registered" prefix name
  in
  check Alcotest.int "evictions gauge" (Pager.stats p).Pager.evictions
    (get "evictions");
  check Alcotest.bool "occupancy gauges published" true
    (get "a1in" + get "am" = 2)

(* qcheck: replacement policy must never change what callers read — 2Q
   and LRU serve byte-identical pages under any access trace, and leave
   identical device images behind. *)
let prop_policies_serve_identical_contents =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 120)
        (pair (int_range 0 15) (int_range 0 4)))
  in
  let print ops =
    String.concat ";"
      (List.map (fun (p, c) -> Printf.sprintf "(%d,%d)" p c) ops)
  in
  let run policy ops =
    let dev = Device.create ~block_size:32 ~blocks:16 () in
    let p = Pager.create ~cache_pages:3 ~policy dev in
    let outputs =
      List.map
        (fun (page, c) ->
          if c = 0 then Pager.with_page p page Bytes.to_string
          else begin
            Pager.with_page_mut p page (fun b ->
                Bytes.fill b 0 (Bytes.length b) (Char.chr (Char.code 'a' + c)));
            ""
          end)
        ops
    in
    Pager.flush p;
    let image =
      List.init 16 (fun n -> Bytes.to_string (Device.read_block dev n))
    in
    (outputs, image)
  in
  QCheck.Test.make ~name:"2Q and LRU serve identical page contents" ~count:300
    (QCheck.make ~print gen) (fun ops -> run `Twoq ops = run `Lru ops)

(* qcheck: the dirty table is exactly the frames written since their
   last write-back. After any mix of reads, writes, updates, zeroed
   pages, selective and full write-backs and invalidations,
   [dirty_pages] lists those pages in page order, each with the bytes
   last written, and [dirty_count] is its length. NO-STEAL keeps dirty
   frames resident; an access that finds the cache full changes
   nothing. *)
type pager_op =
  | Read of int
  | Write of int * char
  | Update of int * char option
  | Zero of int
  | Flush_pages of int list
  | Flush
  | Invalidate

let print_pager_op = function
  | Read n -> Printf.sprintf "read %d" n
  | Write (n, c) -> Printf.sprintf "write %d %c" n c
  | Update (n, Some c) -> Printf.sprintf "update %d %c" n c
  | Update (n, None) -> Printf.sprintf "update %d clean" n
  | Zero n -> Printf.sprintf "zero %d" n
  | Flush_pages l -> "flush_pages " ^ String.concat "," (List.map string_of_int l)
  | Flush -> "flush"
  | Invalidate -> "invalidate"

let prop_dirty_pages_are_the_written_frames =
  let gen =
    QCheck.Gen.(
      let page = int_range 0 23 and byte = char_range 'a' 'z' in
      list_size (int_range 1 150)
        (frequency
           [
             (3, map (fun n -> Read n) page);
             (3, map2 (fun n c -> Write (n, c)) page byte);
             (2, map2 (fun n c -> Update (n, c)) page (opt byte));
             (1, map (fun n -> Zero n) page);
             (1, map (fun l -> Flush_pages l) (list_size (int_range 0 6) page));
             (1, return Flush);
             (1, return Invalidate);
           ]))
  in
  let print ops = String.concat "; " (List.map print_pager_op ops) in
  QCheck.Test.make ~name:"dirty_pages lists exactly the frames written since write-back"
    ~count:300 (QCheck.make ~print gen) (fun ops ->
      let block_size = 32 in
      let _, p = mk ~cache_pages:16 ~block_size ~blocks:24 ~no_steal:true () in
      let dirty = Hashtbl.create 16 in
      let filled c = String.make block_size c in
      let fill c page = Bytes.fill page 0 block_size c in
      List.for_all
        (fun op ->
          (try
             match op with
             | Read n -> Pager.with_page p n ignore
             | Write (n, c) ->
                 Pager.with_page_mut p n (fill c);
                 Hashtbl.replace dirty n (filled c)
             | Update (n, Some c) ->
                 Pager.with_page_update p n (fun page -> (fill c page, true));
                 Hashtbl.replace dirty n (filled c)
             | Update (n, None) -> Pager.with_page_update p n (fun _ -> ((), false))
             | Zero n ->
                 Pager.zero_page p n;
                 Hashtbl.replace dirty n (filled '\000')
             | Flush_pages l ->
                 Pager.flush_pages p l;
                 List.iter (Hashtbl.remove dirty) l
             | Flush ->
                 Pager.flush p;
                 Hashtbl.reset dirty
             | Invalidate ->
                 Pager.invalidate p;
                 Hashtbl.reset dirty
           with Pager.Cache_full _ -> ());
          let expected = Hashtbl.to_seq dirty |> List.of_seq |> List.sort compare in
          let listed = Pager.dirty_pages p in
          List.map (fun (n, page) -> (n, Bytes.to_string page)) listed = expected
          && List.length listed = Pager.dirty_count p)
        ops)

(* --- concurrency ------------------------------------------------------- *)

let test_concurrent_with_page_stats () =
  (* Four domains each make 500 pinned accesses. With atomic stats no
     update may be lost: reads is exact and hits/misses partition it. *)
  let _, p = mk ~cache_pages:8 ~blocks:32 () in
  let domains = 4 and per_domain = 500 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Pager.with_page p ((d + i) mod 32) ignore
            done))
  in
  List.iter Domain.join spawned;
  let s = Pager.stats p in
  check Alcotest.int "reads exact" (domains * per_domain) s.Pager.reads;
  check Alcotest.int "hits + misses = reads" s.Pager.reads
    (s.Pager.hits + s.Pager.misses);
  check Alcotest.bool "frame-table locking counted" true
    (s.Pager.lock_acquisitions >= s.Pager.reads)

let test_concurrent_mut_distinct_pages () =
  (* Each domain dirties its own page; after flush the device must hold
     every domain's bytes — lost pins or frame races would corrupt one. *)
  let dev, p = mk ~cache_pages:4 ~blocks:32 () in
  let domains = 4 in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to 200 do
              Pager.with_page_mut p d (fun page ->
                  Bytes.fill page 0 64 (Char.chr (Char.code 'a' + d)))
            done))
  in
  List.iter Domain.join spawned;
  Pager.flush p;
  for d = 0 to domains - 1 do
    check Alcotest.bytes
      (Printf.sprintf "page %d content" d)
      (Bytes.make 64 (Char.chr (Char.code 'a' + d)))
      (Device.read_block dev d)
  done

let test_pin_discipline_survives_concurrency () =
  (* After a concurrent storm every pin must be balanced: the cache can
     still be filled to capacity, and one page beyond still raises
     Cache_full. Each domain holds at most one pin and there is a frame
     per domain, so any Cache_full during the storm is a real bug. *)
  let domains = 4 in
  let _, p = mk ~cache_pages:domains ~blocks:32 () in
  let spawned =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 300 do
              Pager.with_page p ((d * 7 + i) mod 32) ignore
            done))
  in
  List.iter Domain.join spawned;
  (* No leaked pins: every frame is free to pin... *)
  let rec pin_all blk =
    if blk = domains then
      (* ...and one more simultaneous pin still overflows. *)
      match Pager.with_page p blk ignore with
      | () -> Alcotest.fail "expected Cache_full"
      | exception Pager.Cache_full _ -> ()
    else Pager.with_page p blk (fun _ -> pin_all (blk + 1))
  in
  pin_all 0;
  (* And the failure left no pin behind either. *)
  Pager.with_page p domains ignore;
  Pager.with_page p (domains + 1) ignore

let suite =
  [
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "read-through" `Quick test_read_through;
    Alcotest.test_case "cache hit avoids device" `Quick test_cache_hit_avoids_device;
    Alcotest.test_case "flush writes dirty pages" `Quick test_dirty_write_back_on_flush;
    Alcotest.test_case "eviction writes back" `Quick test_eviction_writes_back;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "nested pins share frame" `Quick test_nested_pins_same_page;
    Alcotest.test_case "cache full when all pinned" `Quick test_cache_full_when_all_pinned;
    Alcotest.test_case "zero_page skips device read" `Quick test_zero_page;
    Alcotest.test_case "invalidate drops clean frames" `Quick test_invalidate_drops_clean;
    Alcotest.test_case "invalidate preserves dirty data" `Quick
      test_invalidate_preserves_dirty_data;
    Alcotest.test_case "mutations survive eviction" `Quick
      test_mutation_visible_after_eviction_cycle;
    Alcotest.test_case "stats reset" `Quick test_stats_reset;
    Alcotest.test_case "exception unpins" `Quick test_exception_in_callback_unpins;
    Alcotest.test_case "2Q probation is FIFO" `Quick
      test_twoq_probation_evicted_first;
    Alcotest.test_case "2Q ghost promotion survives scan" `Quick
      test_ghost_promotion_survives_scan;
    Alcotest.test_case "LRU scan flushes hot page" `Quick
      test_lru_scan_flushes_hot_page;
    Alcotest.test_case "NO-STEAL all-dirty reason" `Quick
      test_no_steal_all_dirty_reason;
    Alcotest.test_case "dirty-blocked reported over pinned" `Quick
      test_dirty_blocked_reported_over_pinned;
    Alcotest.test_case "per-pager metrics registered" `Quick
      test_per_pager_metrics_registered;
    QCheck_alcotest.to_alcotest prop_policies_serve_identical_contents;
    QCheck_alcotest.to_alcotest prop_dirty_pages_are_the_written_frames;
    Alcotest.test_case "concurrent with_page stats" `Quick
      test_concurrent_with_page_stats;
    Alcotest.test_case "concurrent mutation distinct pages" `Quick
      test_concurrent_mut_distinct_pages;
    Alcotest.test_case "pin discipline survives concurrency" `Quick
      test_pin_discipline_survives_concurrency;
  ]
