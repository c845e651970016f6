(* Tests for Hfad_btree: unit tests plus model-based properties against
   the stdlib Map, with structural verification after mutation bursts. *)

module Device = Hfad_blockdev.Device
module Pager = Hfad_pager.Pager
module Buddy = Hfad_alloc.Buddy
module Btree = Hfad_btree.Btree
module Node = Hfad_btree.Node
module SMap = Map.Make (String)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* A tree over a small page size so splits and merges happen early, with
   its pager (for reading raw pages) and allocator. *)
let mk_tree_env ?(page_size = 256) ?(blocks = 4096) () =
  let dev = Device.create ~block_size:page_size ~blocks () in
  let pager = Pager.create ~cache_pages:64 dev in
  let buddy = Buddy.create ~first_block:0 ~blocks () in
  let alloc =
    {
      Btree.alloc_page = (fun () -> Buddy.alloc buddy 1);
      Btree.free_page = (fun p -> Buddy.free buddy p);
    }
  in
  let root = Buddy.alloc buddy 1 in
  (Btree.create pager alloc ~root, pager, buddy)

let mk_tree ?page_size ?blocks () =
  let t, _, buddy = mk_tree_env ?page_size ?blocks () in
  (t, buddy)

let key i = Printf.sprintf "key%06d" i
let value i = Printf.sprintf "value-%d" i

(* --- node serialization ----------------------------------------------- *)

let test_node_leaf_roundtrip () =
  let page = Bytes.create 256 in
  let node =
    Node.Leaf { entries = [| ("a", "1"); ("b", "2"); ("c", "3") |]; next = Some 42 }
  in
  Node.encode node page;
  match Node.decode page with
  | Node.Leaf { entries; next } ->
      check (Alcotest.option Alcotest.int) "next" (Some 42) next;
      check Alcotest.int "entries" 3 (Array.length entries);
      check (Alcotest.pair Alcotest.string Alcotest.string) "entry" ("b", "2")
        entries.(1)
  | Node.Internal _ -> Alcotest.fail "decoded wrong node kind"

let test_node_leaf_no_next () =
  let page = Bytes.create 256 in
  Node.encode (Node.Leaf { entries = [||]; next = None }) page;
  match Node.decode page with
  | Node.Leaf { entries; next } ->
      check (Alcotest.option Alcotest.int) "next" None next;
      check Alcotest.int "empty" 0 (Array.length entries)
  | Node.Internal _ -> Alcotest.fail "decoded wrong node kind"

let test_node_internal_roundtrip () =
  let page = Bytes.create 256 in
  let node = Node.Internal { keys = [| "m"; "t" |]; children = [| 1; 2; 3 |] } in
  Node.encode node page;
  match Node.decode page with
  | Node.Internal { keys; children } ->
      check (Alcotest.array Alcotest.string) "keys" [| "m"; "t" |] keys;
      check (Alcotest.array Alcotest.int) "children" [| 1; 2; 3 |] children
  | Node.Leaf _ -> Alcotest.fail "decoded wrong node kind"

let test_node_encode_too_big () =
  let page = Bytes.create 32 in
  let node = Node.Leaf { entries = [| (String.make 40 'k', "v") |]; next = None } in
  (try
     Node.encode node page;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_node_routing () =
  let page = Bytes.create 256 in
  Node.encode
    (Node.Internal { keys = [| "f"; "m"; "t" |]; children = [| 10; 11; 12; 13 |] })
    page;
  let routes k i =
    check Alcotest.int ("route " ^ k) i (Node.route page k);
    check Alcotest.int ("child_for " ^ k) (10 + i) (Node.child_for page k)
  in
  routes "a" 0;
  routes "" 0;
  routes "f" 1 (* equal routes right *);
  routes "g" 1;
  routes "m" 2;
  routes "z" 3;
  check (Alcotest.array Alcotest.int) "children" [| 10; 11; 12; 13 |]
    (Node.children page);
  check Alcotest.int "child 3" 13 (Node.child page 3)

let test_node_binary_roundtrip =
  qtest
    (QCheck.Test.make ~name:"leaf entries with binary keys/values roundtrip"
       ~count:300
       QCheck.(small_list (pair (string_of_size Gen.(0 -- 20)) (string_of_size Gen.(0 -- 20))))
       (fun pairs ->
         let entries =
           Array.of_list
             (SMap.bindings (SMap.of_seq (List.to_seq pairs)))
         in
         let page = Bytes.create 4096 in
         let node = Node.Leaf { entries; next = None } in
         QCheck.assume (Node.encoded_size node <= 4096);
         Node.encode node page;
         match Node.decode page with
         | Node.Leaf { entries = entries'; _ } -> entries = entries'
         | Node.Internal _ -> false))

(* --- basic operations -------------------------------------------------- *)

let test_empty_tree () =
  let t, _ = mk_tree () in
  check (Alcotest.option Alcotest.string) "find" None (Btree.find t "x");
  check Alcotest.bool "is_empty" true (Btree.is_empty t);
  check Alcotest.int "cardinal" 0 (Btree.cardinal t);
  check Alcotest.int "height" 1 (Btree.height t);
  Btree.verify t

let test_single_binding () =
  let t, _ = mk_tree () in
  Btree.put t ~key:"hello" ~value:"world";
  check (Alcotest.option Alcotest.string) "found" (Some "world")
    (Btree.find t "hello");
  check (Alcotest.option Alcotest.string) "absent" None (Btree.find t "hell");
  check Alcotest.int "cardinal" 1 (Btree.cardinal t);
  Btree.verify t

let test_replace_value () =
  let t, _ = mk_tree () in
  Btree.put t ~key:"k" ~value:"v1";
  Btree.put t ~key:"k" ~value:"v2";
  check (Alcotest.option Alcotest.string) "replaced" (Some "v2") (Btree.find t "k");
  check Alcotest.int "no duplicate" 1 (Btree.cardinal t)

let test_empty_key_is_valid () =
  (* The paper stores object metadata under the NULL key; our equivalent
     is the empty string, which must behave like any other key. *)
  let t, _ = mk_tree () in
  Btree.put t ~key:"" ~value:"metadata";
  Btree.put t ~key:"a" ~value:"1";
  check (Alcotest.option Alcotest.string) "null key" (Some "metadata")
    (Btree.find t "");
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "sorts first"
    (Some ("", "metadata"))
    (Btree.min_binding t)

let test_many_inserts_and_height () =
  let t, _ = mk_tree () in
  let n = 2000 in
  for i = 0 to n - 1 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  for i = 0 to n - 1 do
    check (Alcotest.option Alcotest.string) "present" (Some (value i))
      (Btree.find t (key i))
  done;
  check Alcotest.int "cardinal" n (Btree.cardinal t);
  check Alcotest.bool "height grew" true (Btree.height t > 1);
  check Alcotest.bool "height logarithmic" true (Btree.height t <= 8);
  Btree.verify t

let test_random_insertion_order () =
  let t, _ = mk_tree () in
  let rng = Hfad_util.Rng.create 77L in
  let order = Array.init 1000 Fun.id in
  Hfad_util.Rng.shuffle rng order;
  Array.iter (fun i -> Btree.put t ~key:(key i) ~value:(value i)) order;
  check
    (Alcotest.list Alcotest.string)
    "sorted iteration"
    (List.init 1000 key)
    (List.map fst (Btree.to_list t));
  Btree.verify t

let test_remove_simple () =
  let t, _ = mk_tree () in
  Btree.put t ~key:"a" ~value:"1";
  Btree.put t ~key:"b" ~value:"2";
  check Alcotest.bool "removed" true (Btree.remove t "a");
  check Alcotest.bool "already gone" false (Btree.remove t "a");
  check (Alcotest.option Alcotest.string) "gone" None (Btree.find t "a");
  check (Alcotest.option Alcotest.string) "kept" (Some "2") (Btree.find t "b")

let test_remove_all_collapses () =
  let t, buddy = mk_tree () in
  let n = 1500 in
  for i = 0 to n - 1 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  let live_at_peak = (Buddy.stats buddy).Buddy.live_allocations in
  check Alcotest.bool "tree consumed pages" true (live_at_peak > 10);
  for i = 0 to n - 1 do
    check Alcotest.bool "removed" true (Btree.remove t (key i))
  done;
  check Alcotest.bool "empty" true (Btree.is_empty t);
  check Alcotest.int "height back to 1" 1 (Btree.height t);
  (* All pages except the root must have been returned to the allocator. *)
  check Alcotest.int "pages reclaimed" 1 (Buddy.stats buddy).Buddy.live_allocations;
  Btree.verify t

let test_interleaved_insert_remove () =
  let t, _ = mk_tree () in
  let model = ref SMap.empty in
  let rng = Hfad_util.Rng.create 99L in
  for step = 0 to 5000 do
    let k = key (Hfad_util.Rng.int rng 300) in
    if Hfad_util.Rng.bool rng then begin
      let v = value step in
      Btree.put t ~key:k ~value:v;
      model := SMap.add k v !model
    end
    else begin
      let expected = SMap.mem k !model in
      check Alcotest.bool "remove agrees with model" expected (Btree.remove t k);
      model := SMap.remove k !model
    end
  done;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "final state matches model" (SMap.bindings !model) (Btree.to_list t);
  Btree.verify t

(* --- ordered access ---------------------------------------------------- *)

let test_fold_range () =
  let t, _ = mk_tree () in
  for i = 0 to 99 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  let slice =
    Btree.fold_range t ~lo:(key 10) ~hi:(key 20) ~init:[] (fun acc k _ -> k :: acc)
  in
  check (Alcotest.list Alcotest.string) "half-open slice"
    (List.init 10 (fun i -> key (10 + i)))
    (List.rev slice)

let test_fold_range_unbounded () =
  let t, _ = mk_tree () in
  for i = 0 to 49 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  let all = Btree.fold_range t ~init:0 (fun acc _ _ -> acc + 1) in
  check Alcotest.int "all" 50 all;
  let upper = Btree.fold_range t ~hi:(key 25) ~init:0 (fun acc _ _ -> acc + 1) in
  check Alcotest.int "hi only" 25 upper;
  let lower = Btree.fold_range t ~lo:(key 25) ~init:0 (fun acc _ _ -> acc + 1) in
  check Alcotest.int "lo only" 25 lower

let test_seek_and_next () =
  let t, _ = mk_tree () in
  List.iter
    (fun k -> Btree.put t ~key:k ~value:(String.uppercase_ascii k))
    [ "b"; "d"; "f" ];
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "seek exact" (Some ("d", "D")) (Btree.seek t "d");
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "seek between" (Some ("d", "D")) (Btree.seek t "c");
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "seek past end" None (Btree.seek t "g");
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "next_after skips equal" (Some ("f", "F")) (Btree.next_after t "d")

let test_floor_binding () =
  let t, _ = mk_tree () in
  List.iter
    (fun k -> Btree.put t ~key:k ~value:(String.uppercase_ascii k))
    [ "b"; "d"; "f" ];
  let pair = Alcotest.(option (pair string string)) in
  check pair "exact" (Some ("d", "D")) (Btree.floor_binding t "d");
  check pair "between" (Some ("d", "D")) (Btree.floor_binding t "e");
  check pair "below all" None (Btree.floor_binding t "a");
  check pair "above all" (Some ("f", "F")) (Btree.floor_binding t "z")

let prop_floor_matches_model =
  QCheck.Test.make ~name:"floor_binding agrees with Map" ~count:100
    QCheck.(pair (list (int_bound 500)) (int_bound 500))
    (fun (keys, probe) ->
      let t, _ = mk_tree () in
      let model = ref SMap.empty in
      List.iter
        (fun i ->
          Btree.put t ~key:(key i) ~value:(value i);
          model := SMap.add (key i) (value i) !model)
        keys;
      let expected = SMap.find_last_opt (fun k -> k <= key probe) !model in
      Btree.floor_binding t (key probe) = expected)

let test_floor_crosses_leaf_boundary () =
  (* Force multiple leaves, then probe keys that fall just below the first
     key of a leaf: the answer lives in the previous leaf, exercising the
     fallback path. *)
  let t, _ = mk_tree () in
  for i = 0 to 999 do
    Btree.put t ~key:(key (2 * i)) ~value:(value i)
  done;
  for i = 1 to 999 do
    match Btree.floor_binding t (key ((2 * i) - 1)) with
    | Some (k, _) -> check Alcotest.string "predecessor" (key (2 * (i - 1))) k
    | None -> Alcotest.fail "expected a floor"
  done

let test_fold_prefix () =
  let t, _ = mk_tree () in
  List.iter
    (fun k -> Btree.put t ~key:k ~value:"")
    [ "/home/margo/a"; "/home/margo/b"; "/home/nick/c"; "/tmp/d" ];
  let under_margo =
    Btree.fold_prefix t ~prefix:"/home/margo/" ~init:[] (fun acc k _ -> k :: acc)
  in
  check (Alcotest.list Alcotest.string) "prefix match"
    [ "/home/margo/a"; "/home/margo/b" ]
    (List.rev under_margo)

let test_min_max_binding () =
  let t, _ = mk_tree () in
  for i = 0 to 200 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "min" (Some (key 0, value 0)) (Btree.min_binding t);
  check
    (Alcotest.option (Alcotest.pair Alcotest.string Alcotest.string))
    "max" (Some (key 200, value 200)) (Btree.max_binding t)

(* --- limits, clear, destroy -------------------------------------------- *)

let test_key_value_limits () =
  let t, _ = mk_tree ~page_size:256 () in
  let big_key = String.make (Btree.max_key_size t + 1) 'k' in
  let big_value = String.make (Btree.max_value_size t + 1) 'v' in
  Alcotest.check_raises "key too large"
    (Btree.Key_too_large (String.length big_key)) (fun () ->
      Btree.put t ~key:big_key ~value:"v");
  Alcotest.check_raises "value too large"
    (Btree.Value_too_large (String.length big_value)) (fun () ->
      Btree.put t ~key:"k" ~value:big_value);
  (* At the boundary both are accepted. *)
  Btree.put t ~key:(String.make (Btree.max_key_size t) 'k')
    ~value:(String.make (Btree.max_value_size t) 'v');
  Btree.verify t

let test_clear () =
  let t, buddy = mk_tree () in
  for i = 0 to 999 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  Btree.clear t;
  check Alcotest.bool "empty" true (Btree.is_empty t);
  check Alcotest.int "only root live" 1 (Buddy.stats buddy).Buddy.live_allocations;
  (* The tree is reusable after clear. *)
  Btree.put t ~key:"x" ~value:"y";
  check (Alcotest.option Alcotest.string) "usable" (Some "y") (Btree.find t "x")

let test_destroy_frees_everything () =
  let t, buddy = mk_tree () in
  for i = 0 to 999 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  Btree.destroy t;
  check Alcotest.int "no live pages" 0 (Buddy.stats buddy).Buddy.live_allocations

let test_persistence_through_reopen () =
  (* A tree must be readable through a second handle on the same root,
     after a pager flush — this is the on-disk format contract. *)
  let dev = Device.create ~block_size:256 ~blocks:1024 () in
  let pager = Pager.create ~cache_pages:16 dev in
  let buddy = Buddy.create ~first_block:0 ~blocks:1024 () in
  let alloc =
    {
      Btree.alloc_page = (fun () -> Buddy.alloc buddy 1);
      Btree.free_page = (fun p -> Buddy.free buddy p);
    }
  in
  let root = Buddy.alloc buddy 1 in
  let t = Btree.create pager alloc ~root in
  for i = 0 to 500 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  Pager.flush pager;
  (* Fresh pager = cold cache; all pages come back from the device. *)
  let pager2 = Pager.create ~cache_pages:16 dev in
  let t2 = Btree.open_tree pager2 alloc ~root in
  for i = 0 to 500 do
    check (Alcotest.option Alcotest.string) "reopened" (Some (value i))
      (Btree.find t2 (key i))
  done;
  Btree.verify t2

let test_stats_counting () =
  let t, _ = mk_tree () in
  Btree.reset_stats t;
  for i = 0 to 99 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  let s = Btree.stats t in
  check Alcotest.int "descents = ops" 100 s.Btree.descents;
  check Alcotest.bool "nodes visited >= descents" true
    (s.Btree.nodes_visited >= s.Btree.descents);
  check Alcotest.bool "splits happened" true (s.Btree.splits > 0)

let test_traversal_depth_tracks_height () =
  let t, _ = mk_tree () in
  for i = 0 to 1999 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  let h = Btree.height t in
  Btree.reset_stats t;
  ignore (Btree.find t (key 1000));
  let s = Btree.stats t in
  check Alcotest.int "one descent" 1 s.Btree.descents;
  check Alcotest.int "nodes visited = height" h s.Btree.nodes_visited

(* --- in-place page access ------------------------------------------------ *)

let node_decodes =
  Hfad_metrics.Registry.counter Hfad_metrics.Registry.global "btree.node_decodes"

(* Decodes [f] causes. *)
let decodes_during f =
  let before = Hfad_metrics.Counter.get node_decodes in
  let v = f () in
  (Hfad_metrics.Counter.get node_decodes - before, v)

let test_hot_paths_decode_nothing () =
  let t, _ = mk_tree ~page_size:4096 () in
  for i = 0 to 19_999 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  let none name f =
    let n, _ = decodes_during f in
    check Alcotest.int (name ^ " decodes no node") 0 n
  in
  none "find" (fun () ->
      check (Alcotest.option Alcotest.string) "found" (Some (value 12_345))
        (Btree.find t (key 12_345)));
  none "find absent" (fun () -> ignore (Btree.find t "key012345x"));
  none "floor_binding" (fun () ->
      check
        Alcotest.(option (pair string string))
        "floor" (Some (key 12_345, value 12_345))
        (Btree.floor_binding t "key012345x"));
  none "10-key fold_range" (fun () ->
      check Alcotest.int "ten keys" 10
        (Btree.fold_range t ~lo:(key 500) ~hi:(key 510) ~init:0 (fun n _ _ -> n + 1)));
  (* Ascending inserts leave every leaf but the last about half full, so
     one more entry fits and removing it leaves the leaf as it was. *)
  let splits = (Btree.stats t).Btree.splits in
  none "put replacing a value" (fun () ->
      Btree.put t ~key:(key 777) ~value:"replaced");
  none "put that fits its leaf" (fun () ->
      Btree.put t ~key:"key000777x" ~value:"new");
  check Alcotest.int "no split" splits (Btree.stats t).Btree.splits;
  none "remove" (fun () ->
      check Alcotest.bool "removed" true (Btree.remove t "key000777x"));
  let n, () =
    decodes_during (fun () ->
        let i = ref 0 in
        while (Btree.stats t).Btree.splits = splits do
          Btree.put t ~key:(Printf.sprintf "key000778%04d" !i) ~value:(value !i);
          incr i
        done)
  in
  check Alcotest.bool "a split decodes" true (n >= 1);
  Btree.verify t

(* Op streams whose ids repeat (replacements that grow or shrink the
   value) and whose key and value lengths are fractions, out of 59 and
   64, of the tree's limits, so they reach both; bytes span 0..255. *)
let page_ops_gen =
  QCheck.(
    list_of_size (Gen.int_range 50 300)
      (quad (int_bound 3) (int_bound 59) (int_bound 64) (int_bound 255)))

(* Distinct ids give distinct lengths, hence distinct keys. *)
let key_of_id ~max_key id =
  String.init (id * max_key / 59) (fun j -> Char.chr (((id * 37) + (j * 11)) land 255))

(* Run [ops] on a tree of [page_size] pages; after every op the tree
   matches the model, verifies, and each page is byte for byte what
   [Node.encode] makes of its decoded node. *)
let pages_match_encode ~page_size ops =
  let t, pager, _ = mk_tree_env ~page_size () in
  let max_key = Btree.max_key_size t and max_value = Btree.max_value_size t in
  let model = ref SMap.empty in
  let pages_canonical () =
    Btree.fold_pages t ~init:true (fun ok page_no ->
        ok
        && Pager.with_page pager page_no (fun page ->
               let again = Bytes.make (Bytes.length page) '\255' in
               Node.encode (Node.decode page) again;
               Bytes.equal page again))
  in
  let holds () =
    Btree.verify t;
    Btree.to_list t = SMap.bindings !model && pages_canonical ()
  in
  let remove k =
    ignore (Btree.remove t k);
    model := SMap.remove k !model;
    holds ()
  in
  (* A quarter removes, then a drain of whatever is left, so leaves
     split, merge and rebalance down to an empty root. *)
  List.for_all
    (fun (kind, id, vlen, c) ->
      let k = key_of_id ~max_key id in
      if kind = 0 then remove k
      else begin
        let v = String.make (vlen * max_value / 64) (Char.chr c) in
        Btree.put t ~key:k ~value:v;
        model := SMap.add k v !model;
        holds ()
      end)
    ops
  && List.for_all remove (List.map fst (SMap.bindings !model))

(* 256-byte pages split and merge often; 1024-byte pages take values of
   two-byte varint length. *)
let prop_pages_match_encode =
  QCheck.Test.make ~name:"in-place updates leave encoded pages" ~count:60
    page_ops_gen (fun ops ->
      pages_match_encode ~page_size:256 ops && pages_match_encode ~page_size:1024 ops)

(* A root leaf holding "a", "b", "c", corrupted by [damage]. *)
let corrupt_leaf damage =
  let t, pager, _ = mk_tree_env () in
  List.iter (fun k -> Btree.put t ~key:k ~value:(String.uppercase_ascii k)) [ "a"; "b"; "c" ];
  Pager.with_page_mut pager (Btree.root t) damage;
  (t, pager)

(* [~decode:false] when the damage is in the slot directory, which
   [Node.decode] does not read. *)
let check_corrupt_raises ?(decode = true) name (t, pager) =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: %s did not raise" name what
    | exception (Failure _ | Invalid_argument _) -> ()
  in
  if decode then
    raises "Node.decode" (fun () -> Pager.with_page pager (Btree.root t) Node.decode);
  (* The probe key sorts after every real entry, so the searches reach
     the damage. *)
  raises "find" (fun () -> Btree.find t "z");
  raises "fold_range" (fun () -> Btree.to_list t);
  raises "put" (fun () -> Btree.put t ~key:"z" ~value:"Z");
  raises "verify" (fun () -> Btree.verify t)

(* The entries "a", "b", "c" lie at offsets 7, 11 and 15 and end at 19;
   entry i's slot is the u16 at [256 - 2 (i + 1)]. *)
let set_slot i off page = Bytes.set_uint16_be page (Bytes.length page - (2 * (i + 1))) off

let test_corrupt_pages_raise () =
  check_corrupt_raises "nkeys overstated"
    (corrupt_leaf (fun page -> Bytes.set_uint16_be page 1 0xFFFF));
  (* 119 slots fit behind the header but start at offset 18, inside "c";
     a walk of 119 entries (116 of them zero bytes) still ends inside the
     page. *)
  check_corrupt_raises "directory over the entries"
    (corrupt_leaf (fun page -> Bytes.set_uint16_be page 1 119));
  (* A two-byte varint at "c" claims 16383 key bytes. *)
  check_corrupt_raises "key past page end"
    (corrupt_leaf (fun page ->
         Bytes.set page 15 '\xff';
         Bytes.set page 16 '\x7f'));
  (* Every search probes the middle entry first. *)
  check_corrupt_raises ~decode:false "slot into the header"
    (corrupt_leaf (set_slot 1 3));
  check_corrupt_raises ~decode:false "slot past the last entry"
    (corrupt_leaf (set_slot 1 19));
  (* Swapped slots still point at entries, so only [verify] sees them. *)
  let t, _ =
    corrupt_leaf (fun page ->
        set_slot 0 11 page;
        set_slot 1 7 page)
  in
  match Btree.verify t with
  | () -> Alcotest.fail "swapped slots: verify passed"
  | exception Failure _ -> ()

(* --- properties --------------------------------------------------------- *)

let apply_ops ops =
  let t, _ = mk_tree ~page_size:256 () in
  let model = ref SMap.empty in
  List.iter
    (fun (is_put, k, v) ->
      (* Clamp keys to the tree's limits. *)
      let k = if String.length k > 20 then String.sub k 0 20 else k in
      let v = if String.length v > 40 then String.sub v 0 40 else v in
      if is_put then begin
        Btree.put t ~key:k ~value:v;
        model := SMap.add k v !model
      end
      else begin
        ignore (Btree.remove t k);
        model := SMap.remove k !model
      end)
    ops;
  (t, !model)

let ops_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 400)
      (triple bool (string_of_size Gen.(0 -- 24)) (string_of_size Gen.(0 -- 48))))

let prop_model_equivalence =
  QCheck.Test.make ~name:"btree behaves like Map under random traces" ~count:100
    ops_gen
    (fun ops ->
      let t, model = apply_ops ops in
      Btree.to_list t = SMap.bindings model)

let prop_structural_invariants =
  QCheck.Test.make ~name:"btree invariants hold under random traces" ~count:100
    ops_gen
    (fun ops ->
      let t, _ = apply_ops ops in
      Btree.verify t;
      true)

let prop_range_matches_model =
  QCheck.Test.make ~name:"fold_range agrees with Map filtering" ~count:100
    QCheck.(pair ops_gen (pair (string_of_size Gen.(0 -- 6)) (string_of_size Gen.(0 -- 6))))
    (fun (ops, (a, b)) ->
      let t, model = apply_ops ops in
      let lo = min a b and hi = max a b in
      let expected =
        SMap.bindings model
        |> List.filter (fun (k, _) ->
               String.compare k lo >= 0 && String.compare k hi < 0)
      in
      let actual =
        List.rev (Btree.fold_range t ~lo ~hi ~init:[] (fun acc k v -> (k, v) :: acc))
      in
      actual = expected)

(* Same model property under the smallest legal page: splits and merges
   fire constantly, exercising rebalance paths hard. *)
let prop_tiny_pages =
  QCheck.Test.make ~name:"btree model equivalence on tiny pages" ~count:40
    ops_gen
    (fun ops ->
      let t, _ = mk_tree ~page_size:256 () in
      let model = ref SMap.empty in
      List.iter
        (fun (is_put, k, v) ->
          let k = if String.length k > 16 then String.sub k 0 16 else k in
          let v = if String.length v > 32 then String.sub v 0 32 else v in
          if is_put then begin
            Btree.put t ~key:k ~value:v;
            model := SMap.add k v !model
          end
          else begin
            ignore (Btree.remove t k);
            model := SMap.remove k !model
          end)
        ops;
      Btree.verify t;
      Btree.to_list t = SMap.bindings !model)

(* --- sorted batches ----------------------------------------------------- *)

type batch_op = Set of string | Keep | Drop

let print_batches batches =
  String.concat " | "
    (List.map
       (fun batch ->
         String.concat ";"
           (List.map
              (fun (k, op) ->
                match op with
                | Set v -> Printf.sprintf "%s=%d" k (String.length v)
                | Keep -> k ^ "=keep"
                | Drop -> k ^ "=drop")
              batch))
       batches)

(* Batches over 300 keys whose values run from empty to 40 bytes, so on
   256-byte pages a batch splits, merges and rebalances leaves. A batch
   leans toward puts or toward removes, and now and then it drops every
   key, which collapses the root. *)
let gen_batches =
  QCheck.Gen.(
    let key = map (Printf.sprintf "k%03d") (int_range 0 299) in
    let value = map2 String.make (int_range 0 40) (char_range 'a' 'z') in
    let batch =
      int_range 0 3 >>= fun lean ->
      list_size (int_range 0 80)
        (pair key
           (frequency
              [
                (4, map (fun v -> Set v) value);
                (1, return Keep);
                ((2 * lean) + 1, return Drop);
              ]))
    in
    let wipe = return (List.init 300 (fun i -> (Printf.sprintf "k%03d" i, Drop))) in
    list_size (int_range 1 12) (frequency [ (8, batch); (1, wipe) ]))

let prop_apply_sorted_matches_model =
  QCheck.Test.make ~name:"apply_sorted behaves like Map on 256-byte pages"
    ~count:80 (QCheck.make ~print:print_batches gen_batches) (fun batches ->
      let t, _ = mk_tree ~page_size:256 () in
      let model = ref SMap.empty in
      List.for_all
        (fun batch ->
          let batch = List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) batch in
          let before = !model in
          let change (k, op) =
            ( k,
              fun old ->
                if not (Option.equal String.equal old (SMap.find_opt k before)) then
                  Alcotest.failf "%s: given a value that is not its current one" k;
                match op with Set v -> Some v | Keep -> old | Drop -> None )
          in
          Btree.apply_sorted t (List.map change batch);
          List.iter
            (fun (k, op) ->
              match op with
              | Set v -> model := SMap.add k v !model
              | Keep -> ()
              | Drop -> model := SMap.remove k !model)
            batch;
          Btree.verify t;
          Btree.to_list t = SMap.bindings !model)
        batches)

(* The keys of the leftmost leaf, read off its page. *)
let leftmost_leaf_keys t pager =
  let rec leftmost page_no =
    match
      Pager.with_page pager page_no (fun page ->
          if Node.is_leaf page then None else Some (Node.child page 0))
    with
    | None -> page_no
    | Some child -> leftmost child
  in
  Pager.with_page pager (leftmost (Btree.root t)) (fun page ->
      List.init (Node.nkeys page) (fun i -> fst (Node.binding page i)))

let test_apply_sorted_one_leaf_one_descent () =
  let t, pager, _ = mk_tree_env () in
  for i = 0 to 499 do
    Btree.put t ~key:(key i) ~value:(value i)
  done;
  check Alcotest.bool "three levels or more" true (Btree.height t >= 3);
  let keys = leftmost_leaf_keys t pager in
  check Alcotest.bool "the leaf holds several keys" true (List.length keys >= 2);
  (* Same-length values, so every change fits in place. *)
  Btree.reset_stats t;
  Btree.apply_sorted t
    (List.map (fun k -> (k, fun old -> Option.map String.uppercase_ascii old)) keys);
  check Alcotest.int "one descent for one leaf" 1 (Btree.stats t).Btree.descents;
  List.iter
    (fun k ->
      check Alcotest.bool (k ^ " rebound") true
        (match Btree.find t k with
        | Some v -> v = String.uppercase_ascii v && String.length v > 0
        | None -> false))
    keys;
  Btree.verify t;
  (* Every key kept, and an absent key after each one left absent: no
     value changes, so no page is dirtied. *)
  Pager.flush pager;
  let before = Btree.to_list t in
  Btree.apply_sorted t
    (List.concat
       (List.init 500 (fun i -> [ (key i, Fun.id); (key i ^ "+", fun _ -> None) ])));
  check Alcotest.int "no page dirtied" 0 (Pager.dirty_count pager);
  check Alcotest.bool "no binding changed" true (before = Btree.to_list t);
  Alcotest.check_raises "keys out of order"
    (Invalid_argument "Btree.apply_sorted: keys not strictly ascending")
    (fun () -> Btree.apply_sorted t [ (key 2, Fun.id); (key 1, Fun.id) ]);
  check Alcotest.int "a refused batch changes nothing" 0 (Pager.dirty_count pager)

let test_apply_sorted_restructures () =
  let t, buddy = mk_tree () in
  Btree.apply_sorted t (List.init 600 (fun i -> (key i, fun _ -> Some (value i))));
  Btree.verify t;
  check Alcotest.bool "the batch split leaves" true ((Btree.stats t).Btree.splits > 0);
  check Alcotest.int "every key bound" 600 (Btree.cardinal t);
  let live = (Buddy.stats buddy).Buddy.live_allocations in
  Btree.apply_sorted t
    (List.init 600 (fun i -> (key i, fun old -> if i mod 300 = 7 then old else None)));
  Btree.verify t;
  check Alcotest.(list string) "two keys left" [ key 7; key 307 ]
    (List.map fst (Btree.to_list t));
  check Alcotest.int "the root collapsed to a leaf" 1 (Btree.height t);
  check Alcotest.bool "pages freed" true
    ((Buddy.stats buddy).Buddy.live_allocations < live)

let suite =
  [
    Alcotest.test_case "node leaf roundtrip" `Quick test_node_leaf_roundtrip;
    Alcotest.test_case "node leaf without next" `Quick test_node_leaf_no_next;
    Alcotest.test_case "node internal roundtrip" `Quick test_node_internal_roundtrip;
    Alcotest.test_case "node rejects oversized encode" `Quick test_node_encode_too_big;
    Alcotest.test_case "node in-place routing" `Quick test_node_routing;
    test_node_binary_roundtrip;
    Alcotest.test_case "empty tree" `Quick test_empty_tree;
    Alcotest.test_case "single binding" `Quick test_single_binding;
    Alcotest.test_case "replace value" `Quick test_replace_value;
    Alcotest.test_case "empty (NULL) key" `Quick test_empty_key_is_valid;
    Alcotest.test_case "bulk inserts + height bound" `Quick test_many_inserts_and_height;
    Alcotest.test_case "random insertion order" `Quick test_random_insertion_order;
    Alcotest.test_case "remove simple" `Quick test_remove_simple;
    Alcotest.test_case "remove all + page reclamation" `Quick test_remove_all_collapses;
    Alcotest.test_case "interleaved insert/remove vs model" `Slow
      test_interleaved_insert_remove;
    Alcotest.test_case "fold_range half-open" `Quick test_fold_range;
    Alcotest.test_case "fold_range unbounded" `Quick test_fold_range_unbounded;
    Alcotest.test_case "seek / next_after" `Quick test_seek_and_next;
    Alcotest.test_case "floor_binding" `Quick test_floor_binding;
    qtest prop_floor_matches_model;
    Alcotest.test_case "floor across leaf boundary" `Quick
      test_floor_crosses_leaf_boundary;
    Alcotest.test_case "fold_prefix" `Quick test_fold_prefix;
    Alcotest.test_case "min/max binding" `Quick test_min_max_binding;
    Alcotest.test_case "key/value size limits" `Quick test_key_value_limits;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "destroy frees pages" `Quick test_destroy_frees_everything;
    Alcotest.test_case "persistence through reopen" `Quick
      test_persistence_through_reopen;
    Alcotest.test_case "stats counting" `Quick test_stats_counting;
    Alcotest.test_case "traversal depth = height" `Quick
      test_traversal_depth_tracks_height;
    Alcotest.test_case "hot paths decode no node" `Quick
      test_hot_paths_decode_nothing;
    qtest prop_pages_match_encode;
    Alcotest.test_case "corrupt pages raise" `Quick test_corrupt_pages_raise;
    qtest prop_model_equivalence;
    qtest prop_structural_invariants;
    qtest prop_range_matches_model;
    qtest prop_tiny_pages;
    qtest prop_apply_sorted_matches_model;
    Alcotest.test_case "apply_sorted: one leaf costs one descent" `Quick
      test_apply_sorted_one_leaf_one_descent;
    Alcotest.test_case "apply_sorted splits, merges and collapses" `Quick
      test_apply_sorted_restructures;
  ]
