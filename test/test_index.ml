(* Tests for Hfad_index: Tag, Kv_index, Image_index, Index_store. *)

module Device = Hfad_blockdev.Device
module Pager = Hfad_pager.Pager
module Buddy = Hfad_alloc.Buddy
module Btree = Hfad_btree.Btree
module Osd = Hfad_osd.Osd
module Oid = Hfad_osd.Oid
module Tag = Hfad_index.Tag
module Kv_index = Hfad_index.Kv_index
module Image_index = Hfad_index.Image_index
module Index_store = Hfad_index.Index_store
module Fulltext = Hfad_fulltext.Fulltext

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let oid i = Oid.of_int64 (Int64.of_int i)
let oid_t = Alcotest.testable Oid.pp Oid.equal
let tag_t = Alcotest.testable Tag.pp Tag.equal

let mk_tree () =
  let dev = Device.create ~block_size:1024 ~blocks:4096 () in
  let pager = Pager.create ~cache_pages:128 dev in
  let buddy = Buddy.create ~first_block:0 ~blocks:4096 () in
  let alloc =
    {
      Btree.alloc_page = (fun () -> Buddy.alloc buddy 1);
      Btree.free_page = (fun p -> Buddy.free buddy p);
    }
  in
  Btree.create pager alloc ~root:(Buddy.alloc buddy 1)

let mk_store () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  let osd = Osd.format ~config:(Osd.Config.v ~cache_pages:256 ()) dev in
  (dev, osd, Index_store.create osd)

(* Content reaches the full-text index the way Fs feeds it: write the
   bytes, mark the object, and (unless [drain] is false) drain. *)
let put_text ?(drain = true) osd store oid text =
  Osd.write osd oid ~off:0 text;
  Index_store.mark_dirty store oid;
  if drain then ignore (Index_store.drain store)

(* --- Tag ------------------------------------------------------------------- *)

let test_tag_roundtrip () =
  List.iter
    (fun tag -> check tag_t "roundtrip" tag (Tag.of_string (Tag.to_string tag)))
    Tag.builtin;
  check tag_t "custom" (Tag.Custom "IMAGE") (Tag.of_string "image");
  check tag_t "case insensitive" Tag.Posix (Tag.of_string "posix")

let test_tag_pair_notation () =
  check Alcotest.string "render" "POSIX//home/margo/mail"
    (Format.asprintf "%a" Tag.pp_pair (Tag.Posix, "/home/margo/mail"));
  let tag, value = Tag.pair_of_string "FULLTEXT/beach" in
  check tag_t "parsed tag" Tag.Fulltext tag;
  check Alcotest.string "parsed value" "beach" value

let test_tag_invalid () =
  (try
     ignore (Tag.of_string "");
     Alcotest.fail "empty accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Tag.pair_of_string "no-slash-here");
     Alcotest.fail "missing slash accepted"
   with Invalid_argument _ -> ())

(* --- Kv_index --------------------------------------------------------------- *)

let test_kv_add_lookup () =
  let kv = Kv_index.create (mk_tree ()) ~namespace:"USER" in
  Kv_index.add kv (oid 1) "margo";
  Kv_index.add kv (oid 2) "margo";
  Kv_index.add kv (oid 3) "nick";
  check (Alcotest.list oid_t) "margo's objects" [ oid 1; oid 2 ]
    (Kv_index.lookup kv "margo");
  check (Alcotest.list oid_t) "nick's objects" [ oid 3 ]
    (Kv_index.lookup kv "nick");
  check (Alcotest.list oid_t) "nobody" [] (Kv_index.lookup kv "alice");
  check Alcotest.int "cardinal" 3 (Kv_index.cardinal kv);
  check Alcotest.int "selectivity" 2 (Kv_index.count_value kv "margo");
  Kv_index.verify kv

let test_kv_multiple_values_per_object () =
  let kv = Kv_index.create (mk_tree ()) ~namespace:"UDEF" in
  Kv_index.add kv (oid 1) "vacation";
  Kv_index.add kv (oid 1) "beach";
  Kv_index.add kv (oid 1) "hawaii";
  check (Alcotest.list Alcotest.string) "values_of"
    [ "beach"; "hawaii"; "vacation" ]
    (Kv_index.values_of kv (oid 1));
  check Alcotest.int "drop_object" 3 (Kv_index.drop_object kv (oid 1));
  check (Alcotest.list Alcotest.string) "cleared" [] (Kv_index.values_of kv (oid 1));
  Kv_index.verify kv

let test_kv_idempotent_add_remove () =
  let kv = Kv_index.create (mk_tree ()) ~namespace:"T" in
  Kv_index.add kv (oid 1) "v";
  Kv_index.add kv (oid 1) "v";
  check Alcotest.int "no duplicates" 1 (Kv_index.cardinal kv);
  check Alcotest.bool "remove" true (Kv_index.remove kv (oid 1) "v");
  check Alcotest.bool "second remove" false (Kv_index.remove kv (oid 1) "v");
  Kv_index.verify kv

let test_kv_prefix_lookup () =
  let kv = Kv_index.create (mk_tree ()) ~namespace:"POSIX" in
  Kv_index.add kv (oid 1) "/home/margo/a.txt";
  Kv_index.add kv (oid 2) "/home/margo/b.txt";
  Kv_index.add kv (oid 3) "/home/nick/c.txt";
  let under_margo = Kv_index.lookup_prefix kv "/home/margo/" in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string oid_t))
    "directory listing"
    [ ("/home/margo/a.txt", oid 1); ("/home/margo/b.txt", oid 2) ]
    under_margo

let test_kv_namespaces_isolated () =
  let tree = mk_tree () in
  let users = Kv_index.create tree ~namespace:"USER" in
  let apps = Kv_index.create tree ~namespace:"APP" in
  Kv_index.add users (oid 1) "margo";
  Kv_index.add apps (oid 2) "margo";
  check (Alcotest.list oid_t) "user slice" [ oid 1 ] (Kv_index.lookup users "margo");
  check (Alcotest.list oid_t) "app slice" [ oid 2 ] (Kv_index.lookup apps "margo");
  Kv_index.verify users;
  Kv_index.verify apps

(* The registry's source: one seek per namespace, in key order, with
   names that sort inside and around one another's key ranges. *)
let test_kv_namespace_scan () =
  let tree = mk_tree () in
  check (Alcotest.list Alcotest.string) "empty tree" [] (Kv_index.namespaces tree);
  List.iteri
    (fun i ns -> Kv_index.add (Kv_index.create tree ~namespace:ns) (oid (i + 1)) "v")
    [ "Z"; "AB"; "A\003"; "A"; "A\000X"; "" ];
  let a = Kv_index.create tree ~namespace:"A" in
  for i = 1 to 300 do
    Kv_index.add a (oid i) (Printf.sprintf "value-%03d" i)
  done;
  let before = (Btree.stats tree).Btree.descents in
  check (Alcotest.list Alcotest.string) "every namespace, in key order"
    [ ""; "A\000X"; "A"; "A\003"; "AB"; "Z" ]
    (Kv_index.namespaces tree);
  check Alcotest.int "one seek per namespace, one past the last" 7
    ((Btree.stats tree).Btree.descents - before)

let test_kv_rejects_bad_values () =
  let kv = Kv_index.create (mk_tree ()) ~namespace:"T" in
  (try
     Kv_index.add kv (oid 1) "nul\000inside";
     Alcotest.fail "NUL accepted"
   with Kv_index.Value_not_indexable _ -> ());
  (try
     Kv_index.add kv (oid 1) (String.make (Kv_index.max_value_len kv + 1) 'x');
     Alcotest.fail "oversized accepted"
   with Kv_index.Value_not_indexable _ -> ());
  (* boundary accepted *)
  Kv_index.add kv (oid 1) (String.make (Kv_index.max_value_len kv) 'x')

let prop_kv_mirror =
  qtest
    (QCheck.Test.make ~name:"kv forward/reverse stay mirrored" ~count:80
       QCheck.(
         small_list
           (triple bool (int_bound 20) (string_of_size Gen.(1 -- 12))))
       (fun ops ->
         let kv = Kv_index.create (mk_tree ()) ~namespace:"X" in
         List.iter
           (fun (is_add, i, v) ->
             let v = String.map (fun c -> if c = '\000' then '_' else c) v in
             if is_add then Kv_index.add kv (oid i) v
             else ignore (Kv_index.remove kv (oid i) v))
           ops;
         Kv_index.verify kv;
         true))

(* --- Image_index --------------------------------------------------------------- *)

let fake_image rng n =
  String.init n (fun _ -> Char.chr (Hfad_util.Rng.int rng 256))

let perturb img =
  (* Small, localized change: a near-duplicate "photo". *)
  let b = Bytes.of_string img in
  Bytes.set b (Bytes.length b / 2) 'X';
  Bytes.to_string b

let test_image_hash_stability () =
  let img = fake_image (Hfad_util.Rng.create 1L) 4096 in
  check Alcotest.int64 "deterministic" (Image_index.hash_of_bytes img)
    (Image_index.hash_of_bytes img)

let test_image_hash_similarity () =
  let rng = Hfad_util.Rng.create 2L in
  let img = fake_image rng 4096 in
  let near = perturb img in
  let far = fake_image rng 4096 in
  let d_near = Image_index.hamming (Image_index.hash_of_bytes img)
      (Image_index.hash_of_bytes near)
  in
  let d_far = Image_index.hamming (Image_index.hash_of_bytes img)
      (Image_index.hash_of_bytes far)
  in
  check Alcotest.bool "perturbation stays close" true (d_near <= 4);
  check Alcotest.bool "unrelated images differ" true (d_far > d_near)

let test_image_hex_roundtrip () =
  let h = 0xDEADBEEF12345678L in
  check Alcotest.int64 "roundtrip" h
    (Image_index.value_to_hash (Image_index.hash_to_value h));
  check Alcotest.string "16 digits" "00000000000000ff"
    (Image_index.hash_to_value 255L)

(* An image hash is an ordinary IMAGE name: exact lookup is a lookup,
   and similarity filters the namespace's listing. *)
let image = Tag.Custom "IMAGE"

let image_hash store oid =
  List.find_map
    (fun (tag, v) ->
      if Tag.equal tag image then Some (Image_index.value_to_hash v) else None)
    (Index_store.values_of store oid)

let test_image_lookup () =
  let _, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  let o2 = Osd.create_object osd in
  let o3 = Osd.create_object osd in
  let o4 = Osd.create_object osd in
  let name o h = Index_store.add store o image (Image_index.hash_to_value h) in
  let rng = Hfad_util.Rng.create 3L in
  let img = fake_image rng 2048 in
  let h = Image_index.hash_of_bytes img in
  name o1 h;
  (* A near-duplicate at a known Hamming distance of 2. *)
  name o2 (Int64.logxor h 3L);
  name o3 (Image_index.hash_of_bytes (fake_image rng 2048));
  (* Any other IMAGE name is no hash, and matches nothing. *)
  Index_store.add store o4 image "not-a-hash";
  check (Alcotest.list oid_t) "exact" [ o1 ]
    (Index_store.lookup store (image, Image_index.hash_to_value h));
  let near =
    Image_index.near h ~max_distance:4 (Index_store.lookup_prefix store image "")
  in
  let ids = List.map fst near in
  check Alcotest.bool "original found" true (List.exists (Oid.equal o1) ids);
  check Alcotest.bool "near-duplicate found" true
    (List.exists (Oid.equal o2) ids);
  check Alcotest.bool "unrelated excluded" true
    (not (List.exists (Oid.equal o3) ids));
  check Alcotest.bool "non-hash value skipped" true
    (not (List.exists (Oid.equal o4) ids));
  (match near with
  | (first, 0) :: _ -> check oid_t "exact match ranks first" o1 first
  | _ -> Alcotest.fail "expected zero-distance first");
  check (Alcotest.option Alcotest.int64) "hash_of" (Some h) (image_hash store o1);
  ignore (Index_store.remove store o1 image (Image_index.hash_to_value h));
  check (Alcotest.option Alcotest.int64) "removed" None (image_hash store o1)

(* --- Index_store ------------------------------------------------------------------ *)

let test_store_tag_and_lookup () =
  let _, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  let o2 = Osd.create_object osd in
  Index_store.add store o1 Tag.User "margo";
  Index_store.add store o2 Tag.User "margo";
  Index_store.add store o1 Tag.Udef "vacation";
  check (Alcotest.list oid_t) "by user" [ o1; o2 ]
    (Index_store.lookup store (Tag.User, "margo"));
  check (Alcotest.list oid_t) "conjunction" [ o1 ]
    (Index_store.query store [ (Tag.User, "margo"); (Tag.Udef, "vacation") ]);
  check (Alcotest.list oid_t) "empty query" [] (Index_store.query store []);
  Index_store.verify store

let test_store_id_fastpath () =
  let _, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  check (Alcotest.list oid_t) "id hit" [ o1 ]
    (Index_store.lookup store (Tag.Id, Oid.to_string o1));
  check (Alcotest.list oid_t) "id miss" []
    (Index_store.lookup store (Tag.Id, "424242"));
  check (Alcotest.list oid_t) "id garbage" []
    (Index_store.lookup store (Tag.Id, "not-a-number"));
  (* ID narrows a conjunction. *)
  Index_store.add store o1 Tag.User "margo";
  check (Alcotest.list oid_t) "id + attribute" [ o1 ]
    (Index_store.query store [ (Tag.User, "margo"); (Tag.Id, Oid.to_string o1) ])

let test_store_fulltext_integration () =
  let _, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  let o2 = Osd.create_object osd in
  put_text osd store o1 "report about whales";
  put_text osd store o2 "report about goats";
  Index_store.add store o1 Tag.App "latex";
  check (Alcotest.list oid_t) "fulltext lookup" [ o1 ]
    (Index_store.lookup store (Tag.Fulltext, "whales"));
  check (Alcotest.list oid_t) "mixed conjunction" [ o1 ]
    (Index_store.query store [ (Tag.Fulltext, "report"); (Tag.App, "latex") ]);
  Index_store.verify store

(* §3.4 laziness: stale until drained. Marks coalesce, and the drain
   reads the bytes the object holds when it runs. *)
let test_store_lazy_indexing_path () =
  let _, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  put_text ~drain:false osd store o1 "pending document";
  put_text ~drain:false osd store o1 "lazily indexed content";
  check (Alcotest.list oid_t) "stale" []
    (Index_store.lookup store (Tag.Fulltext, "lazily"));
  check Alcotest.int "one mark per object" 1 (Index_store.backlog store);
  check Alcotest.int "drained" 1 (Index_store.drain store);
  check (Alcotest.list oid_t) "fresh" [ o1 ]
    (Index_store.lookup store (Tag.Fulltext, "lazily"));
  check (Alcotest.list oid_t) "overwritten bytes never indexed" []
    (Index_store.lookup store (Tag.Fulltext, "pending"));
  check Alcotest.int "backlog empty" 0 (Index_store.backlog store)

let test_drain_bounded_ascending () =
  let _, osd, store = mk_store () in
  let oids = List.init 10 (fun _ -> Osd.create_object osd) in
  List.iteri
    (fun i o -> Osd.write osd o ~off:0 (Printf.sprintf "doc number%d" i))
    oids;
  (* Marked newest first; the drain still goes in ascending OID order. *)
  List.iter (Index_store.mark_dirty store) (List.rev oids);
  check Alcotest.int "partial drain" 4 (Index_store.drain ~max_items:4 store);
  check Alcotest.int "rest marked" 6 (Index_store.backlog store);
  let ft = Index_store.fulltext store in
  check Alcotest.int "doc count tracks drain" 4 (Fulltext.doc_count ft);
  check (Alcotest.list Alcotest.bool) "lowest OIDs first"
    (List.init 10 (fun i -> i < 4))
    (List.map (Fulltext.is_indexed ft) oids);
  check Alcotest.int "the rest" 6 (Index_store.drain store);
  check Alcotest.int "all indexed" 10 (Fulltext.doc_count ft)

let test_drain_removes_deleted () =
  let _, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  put_text osd store o1 "ephemeral";
  check (Alcotest.list oid_t) "indexed" [ o1 ]
    (Index_store.lookup store (Tag.Fulltext, "ephemeral"));
  Osd.delete_object osd o1;
  Index_store.mark_dirty store o1;
  ignore (Index_store.drain store);
  check (Alcotest.list oid_t) "net effect: gone" []
    (Index_store.lookup store (Tag.Fulltext, "ephemeral"));
  check Alcotest.int "doc count" 0
    (Fulltext.doc_count (Index_store.fulltext store));
  Index_store.verify store

let test_store_unsupported_tags () =
  let _, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  Alcotest.check_raises "add ID" (Index_store.Unsupported_tag Tag.Id) (fun () ->
      Index_store.add store o1 Tag.Id "1");
  Alcotest.check_raises "add FULLTEXT" (Index_store.Unsupported_tag Tag.Fulltext)
    (fun () -> Index_store.add store o1 Tag.Fulltext "word");
  Alcotest.check_raises "prefix on ID" (Index_store.Unsupported_tag Tag.Id)
    (fun () -> ignore (Index_store.lookup_prefix store Tag.Id "x"))

let test_store_values_of_and_drop () =
  let _, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  Index_store.add store o1 Tag.User "margo";
  Index_store.add store o1 Tag.Udef "thesis";
  Index_store.add store o1 Tag.Posix "/home/margo/thesis.tex";
  put_text osd store o1 "hierarchical filesystems are dead";
  check
    (Alcotest.list (Alcotest.pair tag_t Alcotest.string))
    "values_of"
    [
      (Tag.Posix, "/home/margo/thesis.tex");
      (Tag.Udef, "thesis");
      (Tag.User, "margo");
    ]
    (Index_store.values_of store o1);
  Index_store.drop_object store o1;
  check (Alcotest.list (Alcotest.pair tag_t Alcotest.string)) "dropped" []
    (Index_store.values_of store o1);
  check (Alcotest.list oid_t) "fulltext dropped too" []
    (Index_store.lookup store (Tag.Fulltext, "hierarchical"));
  Index_store.verify store

let test_store_custom_tag () =
  let _, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  Index_store.add store o1 (Tag.Custom "camera") "nikon-d90";
  check (Alcotest.list oid_t) "custom index works" [ o1 ]
    (Index_store.lookup store (Tag.Custom "camera", "nikon-d90"));
  check
    (Alcotest.list (Alcotest.pair tag_t Alcotest.string))
    "listed" [ (Tag.Custom "CAMERA", "nikon-d90") ]
    (Index_store.values_of store o1);
  (* A namespace pair notation cannot spell is still a name: listed and
     dropped with its object. *)
  Index_store.add store o1 (Tag.Custom "lens/mm") "50";
  check
    (Alcotest.list (Alcotest.pair tag_t Alcotest.string))
    "unparseable namespace listed"
    [ (Tag.Custom "CAMERA", "nikon-d90"); (Tag.Custom "LENS/MM", "50") ]
    (Index_store.values_of store o1);
  Index_store.drop_object store o1;
  check (Alcotest.list oid_t) "dropped" []
    (Index_store.lookup store (Tag.Custom "lens/mm", "50"))

let test_store_image_plugin () =
  let _, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  let img = String.init 1024 (fun i -> Char.chr (i * 7 mod 256)) in
  let h = Image_index.hash_to_value (Image_index.hash_of_bytes img) in
  Index_store.add store o1 image h;
  check (Alcotest.list oid_t) "plugin lookup" [ o1 ]
    (Index_store.lookup store (image, h))

let test_store_survives_reopen () =
  let dev, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  let o2 = Osd.create_object osd in
  Index_store.add store o1 Tag.User "margo";
  Index_store.add store o1 (Tag.Custom "camera") "nikon";
  Index_store.add store o2 Tag.Udef "beach";
  put_text osd store o1 "durable content";
  Osd.flush_exn osd;
  let osd2 = Osd.open_existing_exn ~config:(Osd.Config.v ~cache_pages:256 ()) dev in
  let store2 = Index_store.create osd2 in
  check (Alcotest.list oid_t) "attributes survive" [ o1 ]
    (Index_store.lookup store2 (Tag.User, "margo"));
  check (Alcotest.list oid_t) "fulltext survives" [ o1 ]
    (Index_store.lookup store2 (Tag.Fulltext, "durable"));
  Index_store.verify store2;
  (* The registry is read from the tree: a namespace nobody has named
     since the reopen is still listed, dropped and verified. *)
  check
    (Alcotest.list (Alcotest.pair tag_t Alcotest.string))
    "custom name listed"
    [ (Tag.Custom "CAMERA", "nikon"); (Tag.User, "margo") ]
    (Index_store.values_of store2 o1);
  Index_store.drop_object store2 o1;
  check (Alcotest.list oid_t) "custom name dropped" []
    (Index_store.lookup store2 (Tag.Custom "camera", "nikon"));
  Index_store.verify store2;
  let attrs = Osd.named_tree osd2 "attrs" in
  check Alcotest.bool "reverse key removed" true
    (Btree.remove attrs ("UDEF\002" ^ Oid.to_key o2 ^ "beach"));
  match Index_store.verify store2 with
  | () -> Alcotest.fail "verify missed a forward key without its reverse"
  | exception Failure _ -> ()

let test_store_contains_probe () =
  let _, osd, store = mk_store () in
  let o1 = Osd.create_object osd in
  let o2 = Osd.create_object osd in
  Index_store.add store o1 Tag.User "margo";
  put_text osd store o1 "probing is cheap";
  check Alcotest.bool "kv yes" true (Index_store.contains store o1 (Tag.User, "margo"));
  check Alcotest.bool "kv no" false (Index_store.contains store o2 (Tag.User, "margo"));
  check Alcotest.bool "fulltext yes" true
    (Index_store.contains store o1 (Tag.Fulltext, "Probing"));
  check Alcotest.bool "fulltext no" false
    (Index_store.contains store o2 (Tag.Fulltext, "probing"));
  check Alcotest.bool "id yes" true
    (Index_store.contains store o1 (Tag.Id, Oid.to_string o1));
  check Alcotest.bool "id no" false
    (Index_store.contains store o1 (Tag.Id, Oid.to_string o2))

let test_kv_count_capped () =
  let kv = Kv_index.create (mk_tree ()) ~namespace:"T" in
  for i = 1 to 50 do
    Kv_index.add kv (oid i) "popular"
  done;
  check Alcotest.int "exact" 50 (Kv_index.count_value kv "popular");
  check Alcotest.int "capped" 10 (Kv_index.count_value_capped kv "popular" ~cap:10);
  check Alcotest.int "cap above count" 50
    (Kv_index.count_value_capped kv "popular" ~cap:100)

let test_probing_conjunction_agrees_with_scan () =
  (* Force both paths (probe vs scan) and check they agree. *)
  let _, osd, store = mk_store () in
  let oids = List.init 200 (fun _ -> Osd.create_object osd) in
  List.iteri
    (fun i o ->
      Index_store.add store o Tag.Udef "common";
      if i mod 40 = 0 then Index_store.add store o Tag.Udef "rare")
    oids;
  let result = Index_store.query store [ (Tag.Udef, "common"); (Tag.Udef, "rare") ] in
  let brute =
    List.filter
      (fun o ->
        Index_store.contains store o (Tag.Udef, "common")
        && Index_store.contains store o (Tag.Udef, "rare"))
      oids
  in
  check Alcotest.int "size" 5 (List.length result);
  check (Alcotest.list oid_t) "agree" brute result

let test_store_selectivity_ordering () =
  let _, osd, store = mk_store () in
  (* 100 objects by one user, 2 with a rare annotation. *)
  let oids = List.init 100 (fun _ -> Osd.create_object osd) in
  List.iter (fun o -> Index_store.add store o Tag.User "margo") oids;
  (match oids with
  | a :: b :: _ ->
      Index_store.add store a Tag.Udef "rare";
      Index_store.add store b Tag.Udef "rare"
  | _ -> assert false);
  check Alcotest.int "selectivity user" 100
    (Index_store.selectivity store (Tag.User, "margo"));
  check Alcotest.int "selectivity rare" 2
    (Index_store.selectivity store (Tag.Udef, "rare"));
  check Alcotest.int "conjunction result" 2
    (List.length
       (Index_store.query store [ (Tag.User, "margo"); (Tag.Udef, "rare") ]))

let suite =
  [
    Alcotest.test_case "tag roundtrip" `Quick test_tag_roundtrip;
    Alcotest.test_case "tag pair notation" `Quick test_tag_pair_notation;
    Alcotest.test_case "tag invalid inputs" `Quick test_tag_invalid;
    Alcotest.test_case "kv add/lookup" `Quick test_kv_add_lookup;
    Alcotest.test_case "kv multiple values per object" `Quick
      test_kv_multiple_values_per_object;
    Alcotest.test_case "kv idempotence" `Quick test_kv_idempotent_add_remove;
    Alcotest.test_case "kv prefix lookup" `Quick test_kv_prefix_lookup;
    Alcotest.test_case "kv namespace isolation" `Quick test_kv_namespaces_isolated;
    Alcotest.test_case "kv rejects bad values" `Quick test_kv_rejects_bad_values;
    prop_kv_mirror;
    Alcotest.test_case "image hash stability" `Quick test_image_hash_stability;
    Alcotest.test_case "image hash similarity" `Quick test_image_hash_similarity;
    Alcotest.test_case "image hex roundtrip" `Quick test_image_hex_roundtrip;
    Alcotest.test_case "image lookup" `Quick test_image_lookup;
    Alcotest.test_case "store tag and lookup" `Quick test_store_tag_and_lookup;
    Alcotest.test_case "store ID fast path" `Quick test_store_id_fastpath;
    Alcotest.test_case "store fulltext integration" `Quick
      test_store_fulltext_integration;
    Alcotest.test_case "store lazy indexing" `Quick test_store_lazy_indexing_path;
    Alcotest.test_case "store drain: bounded, ascending OIDs" `Quick
      test_drain_bounded_ascending;
    Alcotest.test_case "store drain: removes deleted objects" `Quick
      test_drain_removes_deleted;
    Alcotest.test_case "store unsupported tags" `Quick test_store_unsupported_tags;
    Alcotest.test_case "store values_of / drop" `Quick test_store_values_of_and_drop;
    Alcotest.test_case "store custom tag" `Quick test_store_custom_tag;
    Alcotest.test_case "store image plugin" `Quick test_store_image_plugin;
    Alcotest.test_case "store survives reopen" `Quick test_store_survives_reopen;
    Alcotest.test_case "store selectivity ordering" `Quick
      test_store_selectivity_ordering;
    Alcotest.test_case "store contains probe" `Quick test_store_contains_probe;
    Alcotest.test_case "kv capped count" `Quick test_kv_count_capped;
    Alcotest.test_case "probing conjunction agrees" `Quick
      test_probing_conjunction_agrees_with_scan;
    Alcotest.test_case "kv namespace scan" `Quick test_kv_namespace_scan;
  ]
