(* Tests for the native hFAD API (Hfad.Fs) and search refinement
   (Hfad.Refine). *)

module Device = Hfad_blockdev.Device
module Btree = Hfad_btree.Btree
module Osd = Hfad_osd.Osd
module Oid = Hfad_osd.Oid
module Meta = Hfad_osd.Meta
module Tag = Hfad_index.Tag
module Fs = Hfad.Fs
module Refine = Hfad.Refine

let check = Alcotest.check
let oid_t = Alcotest.testable Oid.pp Oid.equal
let tag_t = Alcotest.testable Tag.pp Tag.equal

let mk ?(index_mode = Fs.Eager) () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  (dev, Fs.format ~config:(Fs.Config.v ~cache_pages:256 ~index_mode ()) dev)

let test_create_with_names_and_content () =
  let _, fs = mk () in
  let oid =
    Fs.create_exn fs
      ~names:[ (Tag.User, "margo"); (Tag.Udef, "paper") ]
      ~content:"hierarchical file systems are dead"
  in
  check (Alcotest.list oid_t) "by user" [ oid ] (Fs.lookup fs [ (Tag.User, "margo") ]);
  check (Alcotest.list oid_t) "by two tags" [ oid ]
    (Fs.lookup fs [ (Tag.User, "margo"); (Tag.Udef, "paper") ]);
  check (Alcotest.list oid_t) "by content" [ oid ]
    (List.map fst (Fs.search fs "hierarchical dead"));
  check Alcotest.string "content" "hierarchical file systems are dead"
    (Fs.read_all fs oid);
  Fs.verify fs

let test_multiple_names_same_object () =
  (* §2.2: "a single piece of data may belong to multiple collections". *)
  let _, fs = mk () in
  let oid = Fs.create_exn fs ~content:"photo bytes" in
  Fs.name_exn fs oid Tag.Udef "vacation";
  Fs.name_exn fs oid Tag.Udef "family";
  Fs.name_exn fs oid Tag.Udef "hawaii-2008";
  Fs.name_exn fs oid Tag.Posix "/photos/hawaii/img1.jpg";
  List.iter
    (fun collection ->
      check (Alcotest.list oid_t)
        (Printf.sprintf "in collection %s" collection)
        [ oid ]
        (Fs.lookup fs [ (Tag.Udef, collection) ]))
    [ "vacation"; "family"; "hawaii-2008" ];
  check Alcotest.int "all names visible" 4 (List.length (Fs.names_of fs oid))

let test_lookup_conjunction_and_order () =
  let _, fs = mk () in
  let a = Fs.create_exn fs ~names:[ (Tag.User, "nick"); (Tag.App, "gcc") ] in
  let b = Fs.create_exn fs ~names:[ (Tag.User, "nick"); (Tag.App, "vim") ] in
  let _c = Fs.create_exn fs ~names:[ (Tag.User, "margo"); (Tag.App, "gcc") ] in
  check (Alcotest.list oid_t) "conjunction" [ a ]
    (Fs.lookup fs [ (Tag.User, "nick"); (Tag.App, "gcc") ]);
  check (Alcotest.list oid_t) "ascending oid order" [ a; b ]
    (Fs.lookup fs [ (Tag.User, "nick") ]);
  check (Alcotest.option oid_t) "lookup_one" (Some a)
    (Fs.lookup_one fs [ (Tag.App, "gcc"); (Tag.User, "nick") ]);
  check (Alcotest.option oid_t) "lookup_one empty" None
    (Fs.lookup_one fs [ (Tag.User, "nobody") ])

let test_unname () =
  let _, fs = mk () in
  let oid = Fs.create_exn fs ~names:[ (Tag.Udef, "draft") ] in
  check Alcotest.bool "removed" true (Fs.unname_exn fs oid Tag.Udef "draft");
  check Alcotest.bool "gone" false (Fs.unname_exn fs oid Tag.Udef "draft");
  check (Alcotest.list oid_t) "no longer found" []
    (Fs.lookup fs [ (Tag.Udef, "draft") ])

let test_name_requires_live_object () =
  let _, fs = mk () in
  Alcotest.check_raises "dead oid"
    (Hfad_osd.Osd.No_such_object (Oid.of_int64 404L)) (fun () ->
      Fs.name_exn fs (Oid.of_int64 404L) Tag.User "ghost")

let test_delete_cleans_indexes () =
  let _, fs = mk () in
  let oid =
    Fs.create_exn fs ~names:[ (Tag.User, "margo") ] ~content:"deleted text corpus"
  in
  Fs.delete_exn fs oid;
  check Alcotest.bool "object gone" false (Fs.exists fs oid);
  check (Alcotest.list oid_t) "attribute gone" []
    (Fs.lookup fs [ (Tag.User, "margo") ]);
  check (Alcotest.list oid_t) "content gone" []
    (List.map fst (Fs.search fs "corpus"));
  Fs.verify fs

let test_mutation_reindexes_eagerly () =
  let _, fs = mk () in
  let oid = Fs.create_exn fs ~content:"versionone text" in
  check Alcotest.int "found v1" 1 (List.length (Fs.search fs "versionone"));
  Fs.write_exn fs oid ~off:0 "versiontwo text";
  check (Alcotest.list oid_t) "v1 gone" [] (List.map fst (Fs.search fs "versionone"));
  check (Alcotest.list oid_t) "v2 found" [ oid ]
    (List.map fst (Fs.search fs "versiontwo"))

let test_lazy_mode_staleness () =
  let _, fs = mk ~index_mode:Fs.Lazy () in
  let oid = Fs.create_exn fs ~content:"lazy content words" in
  check Alcotest.bool "backlog" true (Fs.index_backlog fs > 0);
  check (Alcotest.list oid_t) "stale" [] (List.map fst (Fs.search fs "lazy"));
  Fs.drain_index fs;
  check (Alcotest.list oid_t) "fresh after drain" [ oid ]
    (List.map fst (Fs.search fs "lazy"));
  check Alcotest.int "backlog empty" 0 (Fs.index_backlog fs)

(* Marks coalesce: five appends before a drain leave one object to
   reindex, and the drain reads the bytes the object ends with. *)
let test_lazy_marks_coalesce () =
  let _, fs = mk ~index_mode:Fs.Lazy () in
  let oid = Fs.create_exn fs ~content:"opening" in
  Fs.drain_index fs;
  List.iter
    (fun w -> Fs.append_exn fs oid (" " ^ w))
    [ "kiwi"; "mango"; "papaya"; "quince"; "tamarind" ];
  check Alcotest.int "one object marked" 1 (Fs.index_backlog fs);
  check (Alcotest.list oid_t) "stale" [] (List.map fst (Fs.search fs "tamarind"));
  Fs.drain_index fs;
  check (Alcotest.list oid_t) "final words searchable" [ oid ]
    (List.map fst (Fs.search fs "opening kiwi tamarind"));
  check Alcotest.int "backlog empty" 0 (Fs.index_backlog fs)

let test_off_mode_never_indexes () =
  let _, fs = mk ~index_mode:Fs.Off () in
  let _ = Fs.create_exn fs ~content:"invisible content" in
  Fs.drain_index fs;
  check (Alcotest.list oid_t) "not indexed" []
    (List.map fst (Fs.search fs "invisible"))

let test_access_interface_via_core () =
  let _, fs = mk () in
  let oid = Fs.create_exn fs ~content:"hello world" in
  Fs.insert_exn fs oid ~off:5 " cruel";
  check Alcotest.string "insert" "hello cruel world" (Fs.read_all fs oid);
  Fs.remove_bytes_exn fs oid ~off:5 ~len:6;
  check Alcotest.string "remove" "hello world" (Fs.read_all fs oid);
  Fs.truncate_exn fs oid 5;
  check Alcotest.string "truncate" "hello" (Fs.read_all fs oid);
  Fs.append_exn fs oid "!";
  check Alcotest.string "append" "hello!" (Fs.read_all fs oid);
  check Alcotest.int "size" 6 (Fs.size fs oid);
  (* mutations keep the content index current (eager mode) *)
  check (Alcotest.list oid_t) "index tracked mutations" [ oid ]
    (List.map fst (Fs.search fs "hello"))

let test_survives_reopen () =
  let dev, fs = mk () in
  let oid =
    Fs.create_exn fs ~names:[ (Tag.User, "nick") ] ~content:"durable native state"
  in
  Fs.sync_exn ~mode:`Checkpoint fs;
  let fs2 = Fs.open_existing_exn ~config:(Fs.Config.v ~cache_pages:256 ~index_mode:Fs.Eager ()) dev in
  check (Alcotest.list oid_t) "names survive" [ oid ]
    (Fs.lookup fs2 [ (Tag.User, "nick") ]);
  check (Alcotest.list oid_t) "content survives" [ oid ]
    (List.map fst (Fs.search fs2 "durable"));
  check Alcotest.string "bytes survive" "durable native state"
    (Fs.read_all fs2 oid);
  Fs.verify fs2

(* A namespace nobody has named since the reopen is still read from the
   attrs tree: listed, deleted with its object, and verified. *)
let test_names_survive_reopen () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  let config = Fs.Config.v ~cache_pages:256 ~journal_pages:64 () in
  let fs = Fs.format ~config dev in
  let oid =
    Fs.create_exn fs ~names:[ (Tag.User, "margo"); (Tag.Custom "camera", "nikon") ]
  in
  Fs.sync_exn ~mode:`Checkpoint fs;
  let reopen () = Fs.open_existing_exn ~config dev in
  (* A reverse key removed by hand, in the cache only (nothing
     checkpoints it), must fail the first verify after a reopen. *)
  let fs2 = reopen () in
  let attrs = Osd.named_tree (Fs.osd_of_shard fs2 0) "attrs" in
  check Alcotest.bool "reverse key removed" true
    (Btree.remove attrs ("CAMERA\002" ^ Oid.to_key oid ^ "nikon"));
  (match Fs.verify fs2 with
  | () -> Alcotest.fail "verify missed a forward key without its reverse"
  | exception Failure _ -> ());
  let fs3 = reopen () in
  check
    (Alcotest.list (Alcotest.pair tag_t Alcotest.string))
    "names_of lists the custom name"
    [ (Tag.Custom "CAMERA", "nikon"); (Tag.User, "margo") ]
    (Fs.names_of fs3 oid);
  Fs.delete_exn fs3 oid;
  check (Alcotest.list oid_t) "deleted with its object" []
    (Fs.lookup fs3 [ (Tag.Custom "camera", "nikon") ]);
  Fs.verify fs3

(* --- Refine ----------------------------------------------------------------- *)

let mk_photo_fs () =
  let _, fs = mk () in
  (* A small photo library: (who, where) combinations. *)
  let photo who where year =
    Fs.create_exn fs
      ~names:
        [
          (Tag.User, who);
          (Tag.Udef, where);
          (Tag.Custom "year", string_of_int year);
        ]
  in
  let a = photo "margo" "hawaii" 2008 in
  let b = photo "margo" "boston" 2008 in
  let c = photo "nick" "hawaii" 2009 in
  (fs, a, b, c)

let test_refine_narrow_widen () =
  let fs, a, b, c = mk_photo_fs () in
  let root = Refine.start fs in
  check Alcotest.int "root sees all" 3 (Refine.count root);
  check Alcotest.string "root pwd" "/" (Refine.pwd root);
  let margo = Refine.narrow root (Tag.User, "margo") in
  check (Alcotest.list oid_t) "margo's photos" [ a; b ] (Refine.ls margo);
  let hawaii = Refine.narrow margo (Tag.Udef, "hawaii") in
  check (Alcotest.list oid_t) "margo in hawaii" [ a ] (Refine.ls hawaii);
  check Alcotest.string "pwd" "/USER=margo/UDEF=hawaii" (Refine.pwd hawaii);
  (* the outer session is untouched (structure sharing) *)
  check Alcotest.int "outer still valid" 2 (Refine.count margo);
  let back = Refine.widen hawaii in
  check (Alcotest.list oid_t) "cd .." [ a; b ] (Refine.ls back);
  let top = Refine.widen (Refine.widen back) in
  check Alcotest.int "widen at root is identity" 3 (Refine.count top);
  ignore c

let test_refine_alternate_hierarchies () =
  (* §2.2: no canonical hierarchy — refine by place first or person
     first; both reach the same objects. *)
  let fs, a, _b, c = mk_photo_fs () in
  let by_place_then_person =
    Refine.ls
      (Refine.narrow
         (Refine.narrow (Refine.start fs) (Tag.Udef, "hawaii"))
         (Tag.User, "margo"))
  in
  let by_person_then_place =
    Refine.ls
      (Refine.narrow
         (Refine.narrow (Refine.start fs) (Tag.User, "margo"))
         (Tag.Udef, "hawaii"))
  in
  check (Alcotest.list oid_t) "order irrelevant" by_place_then_person
    by_person_then_place;
  check (Alcotest.list oid_t) "expected object" [ a ] by_place_then_person;
  check (Alcotest.list oid_t) "hawaii alone" [ a; c ]
    (Refine.ls (Refine.narrow (Refine.start fs) (Tag.Udef, "hawaii")))

let test_refine_empty_result () =
  let fs, _, _, _ = mk_photo_fs () in
  let impossible =
    Refine.narrow
      (Refine.narrow (Refine.start fs) (Tag.User, "nick"))
      (Tag.Udef, "boston")
  in
  check Alcotest.int "empty" 0 (Refine.count impossible);
  check (Alcotest.list (Alcotest.pair (Alcotest.testable Tag.pp Tag.equal) Alcotest.string))
    "constraints tracked"
    [ (Tag.User, "nick"); (Tag.Udef, "boston") ]
    (Refine.constraints impossible)

let test_refine_with_fulltext_and_posix () =
  let _, fs = mk () in
  let a =
    Fs.create_exn fs
      ~names:[ (Tag.User, "margo"); (Tag.Posix, "/p/a") ]
      ~content:"report about whales"
  in
  let _b =
    Fs.create_exn fs
      ~names:[ (Tag.User, "margo"); (Tag.Posix, "/p/b") ]
      ~content:"report about goats"
  in
  (* Narrowing by a FULLTEXT pair and then a POSIX pair composes. *)
  let s =
    Refine.narrow
      (Refine.narrow (Refine.start fs) (Tag.Fulltext, "whales"))
      (Tag.User, "margo")
  in
  check (Alcotest.list oid_t) "fulltext + user" [ a ] (Refine.ls s);
  let s2 = Refine.narrow s (Tag.Posix, "/p/a") in
  check (Alcotest.list oid_t) "+ posix" [ a ] (Refine.ls s2);
  let s3 = Refine.narrow s (Tag.Posix, "/p/b") in
  check Alcotest.int "contradictory path" 0 (Refine.count s3)

(* The root session lists every object, on every shard, by the global
   OID the rest of the API speaks. *)
let test_refine_root_spans_shards () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  let fs = Fs.format ~config:(Fs.Config.v ~cache_pages:256 ~shards:4 ()) dev in
  let made =
    List.init 12 (fun i -> Fs.create_exn ~content:(string_of_int i) fs)
  in
  let root = Refine.start fs in
  check (Alcotest.list oid_t) "every object, ascending"
    (List.sort Oid.compare made) (Refine.ls root);
  List.iter
    (fun oid -> check Alcotest.bool "resolvable" true (Fs.exists fs oid))
    (Refine.ls root);
  let back = Refine.widen (Refine.narrow root (Tag.Udef, "none")) in
  check Alcotest.int "widen back to the root" 12 (Refine.count back)

let test_query_string_through_fs () =
  let _, fs = mk () in
  let a = Fs.create_exn fs ~names:[ (Tag.User, "margo"); (Tag.App, "gcc") ] in
  let b = Fs.create_exn fs ~names:[ (Tag.User, "margo"); (Tag.App, "vim") ] in
  check (Alcotest.list oid_t) "parsed query" [ a ]
    (Fs.query_string fs "USER/margo & APP/gcc");
  check (Alcotest.list oid_t) "negation" [ b ]
    (Fs.query_string fs "USER/margo & !APP/gcc");
  Alcotest.check_raises "parse error surfaces"
    (Hfad_index.Query.Parse_error "unexpected end of query") (fun () ->
      ignore (Fs.query_string fs "USER/margo &"))

(* --- admission against the cache budget ------------------------------- *)

(* A NO-STEAL cache never wedges a writer: a loop of small named creates
   with no sync of its own, journaled, default cache, in every index
   mode, with and without the pipeline. Each plan seals its shard first
   when the dirty set plus its estimate would pass the dirty budget (in
   the writer's thread: an in-process daemon may not get to run), so no
   create fails, and a sync and a later create succeed. *)
let admission_vocab =
  [| "ledger"; "harbor"; "lantern"; "meadow"; "orchard"; "quarry"; "willow";
     "summit"; "canyon"; "river"; "forest"; "island" |]

let admission_text i =
  String.concat " "
    (List.init 30 (fun j ->
         admission_vocab.(((i * 7) + (j * 3)) mod Array.length admission_vocab)
         ^ string_of_int ((i + j) mod 4)))

let admission_creates = 5000

let test_admission_never_wedges () =
  List.iter
    (fun (mode, label) ->
      List.iter
        (fun pipeline ->
          let label = label ^ if pipeline then " with the pipeline" else "" in
          let dev = Device.create ~block_size:4096 ~blocks:32768 () in
          let fs =
            Fs.format ~config:(Fs.Config.v ~index_mode:mode ~journal_pages:2048 ()) dev
          in
          if pipeline then Fs.start_pipeline fs;
          for i = 1 to admission_creates do
            match
              Fs.create fs
                ~names:[ (Tag.Udef, Printf.sprintf "a%05d" i) ]
                ~content:(admission_text i)
            with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "%s: create %d failed: %s" label i (Fs.error_message e)
          done;
          (match Fs.sync fs with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: sync failed: %s" label (Fs.error_message e));
          ignore (Fs.create_exn fs ~content:"one more create");
          Fs.close fs)
        [ false; true ])
    [ (Fs.Eager, "eager"); (Fs.Lazy, "lazy"); (Fs.Off, "off") ]

(* --- a document too large to index ------------------------------------- *)

(* [n] five-character tokens no other text here shares. *)
let distinct_words ~from n =
  String.concat " " (List.init n (fun i -> Printf.sprintf "z%04x" (from + i)))

(* A reindex of this many new terms passes half of a 1024-frame cache. *)
let unfit_words = 24_000

let dirty_pages fs s = Hfad_pager.Pager.dirty_count (Osd.pager (Fs.osd_of_shard fs s))
let unfit fs s = Hfad_index.Index_store.unfit (Fs.index_of_shard fs s)

let expect_cache_full what = function
  | Error (Fs.Cache_full _) -> ()
  | Ok () -> Alcotest.failf "%s: Ok despite an unindexable document" what
  | Error e -> Alcotest.failf "%s: %s" what (Fs.error_message e)

(* Eager mode, a small journal: a document whose reindex cannot fit the
   dirty budget is created all the same, and stays marked. Later
   mutations on its shard, a two-op plan among them, succeed and are
   searchable at once; a checkpoint reports the document but seals the
   shard; and a rewrite that makes the document small indexes it. *)
let test_eager_unfit_document () =
  let dev = Device.create ~block_size:4096 ~blocks:16384 () in
  let config = Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:512 () in
  let fs = Fs.format ~config dev in
  let big =
    Fs.create_exn fs ~names:[ (Tag.Udef, "big") ]
      ~content:(distinct_words ~from:0 unfit_words)
  in
  check Alcotest.int "the big document stays marked" 1 (unfit fs 0);
  check (Alcotest.list oid_t) "its name is bound" [ big ]
    (Fs.lookup fs [ (Tag.Udef, "big") ]);
  let small = Fs.create_exn fs ~content:"a small searchable note" in
  check (Alcotest.list oid_t) "a later create is searchable at once" [ small ]
    (List.map fst (Fs.search fs "searchable"));
  let pair =
    Fs.with_txn_exn fs (fun tx ->
        let oid = Fs.Txn.create tx ~content:"a staged pair" in
        Fs.Txn.name tx oid Tag.Udef "pair";
        oid)
  in
  check (Alcotest.list oid_t) "the plan's name" [ pair ]
    (Fs.lookup fs [ (Tag.Udef, "pair") ]);
  check (Alcotest.list oid_t) "the plan's content" [ pair ]
    (List.map fst (Fs.search fs "staged"));
  (match Fs.drain_index fs with
  | () -> Alcotest.fail "drain_index: no error for an unindexable document"
  | exception Hfad_pager.Pager.Cache_full _ -> ());
  expect_cache_full "checkpoint" (Fs.sync ~mode:`Checkpoint fs);
  check Alcotest.int "the checkpoint sealed the shard" 0 (dirty_pages fs 0);
  let reopened = Fs.open_existing_exn ~config dev in
  check Alcotest.int "every object is on the device" 3 (Fs.object_count reopened);
  check Alcotest.int "with the big document's mark" 1 (Fs.index_backlog reopened);
  Fs.truncate_exn fs big 0;
  Fs.write_exn fs big ~off:0 "a big document made small";
  check Alcotest.int "nothing left unindexed" 0 (Fs.index_backlog fs);
  check (Alcotest.list oid_t) "the rewrite is searchable" [ big ]
    (List.map fst (Fs.search fs "made"));
  Fs.sync_exn ~mode:`Checkpoint fs;
  Fs.verify fs;
  Fs.close fs

(* A document whose reindex outgrows one journal commit, but not the
   dirty budget, is indexed at once all the same; its seal splits into
   journaled phases. *)
let test_eager_document_past_one_commit () =
  let dev = Device.create ~block_size:4096 ~blocks:16384 () in
  let config = Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:64 () in
  let fs = Fs.format ~config dev in
  let doc = Fs.create_exn fs ~content:(distinct_words ~from:0 4000) in
  check Alcotest.int "nothing unindexed" 0 (Fs.index_backlog fs);
  check (Alcotest.list oid_t) "searchable at once" [ doc ]
    (List.map fst (Fs.search fs "z0f9f"));
  Fs.sync_exn ~mode:`Checkpoint fs;
  Fs.verify fs;
  Fs.verify (Fs.open_existing_exn dev);
  Fs.close fs

(* Two shards, an unindexable document on one: a checkpoint reports it,
   yet drains and seals both shards. *)
let test_checkpoint_seals_every_shard () =
  let dev = Device.create ~block_size:4096 ~blocks:32768 () in
  let fs = Fs.format ~config:(Fs.Config.v ~shards:2 ~journal_pages:512 ()) dev in
  let big = Fs.create_exn fs ~content:(distinct_words ~from:0 unfit_words) in
  let notes =
    List.init 4 (fun i -> Fs.create_exn fs ~content:(Printf.sprintf "shard note %d" i))
  in
  let s = Fs.shard_of_oid fs big in
  check Alcotest.bool "notes on both shards" true
    (List.exists (fun oid -> Fs.shard_of_oid fs oid <> s) notes);
  expect_cache_full "checkpoint" (Fs.sync ~mode:`Checkpoint fs);
  for i = 0 to 1 do
    check Alcotest.int (Printf.sprintf "shard %d sealed" i) 0 (dirty_pages fs i);
    check Alcotest.int
      (Printf.sprintf "shard %d unfit" i)
      (if i = s then 1 else 0)
      (unfit fs i)
  done;
  check (Alcotest.list oid_t) "every note indexed" notes
    (List.sort Oid.compare (List.map fst (Fs.search fs "note")));
  expect_cache_full "a second checkpoint" (Fs.sync ~mode:`Checkpoint fs);
  Fs.delete_exn fs big;
  Fs.sync_exn ~mode:`Checkpoint fs;
  Fs.verify fs;
  Fs.close fs

(* --- bounded drains ------------------------------------------------------ *)

(* A 96-frame cache leaves a dirty budget of 48 pages, less than one
   drain chunk of small distinct documents dirties (a chunk takes up to
   32 KiB of text): a drain must count a chunk's pages before it writes
   and cut it into runs that fit, sealing between them. Both drains, the
   one a wire SEARCH runs ([drain_index]) and a checkpoint's, succeed,
   and every document is found. *)
let test_drain_cut_to_fit () =
  let dev = Device.create ~block_size:4096 ~blocks:8192 () in
  let config = Fs.Config.v ~cache_pages:96 ~journal_pages:2048 () in
  let fs = Fs.format ~config dev in
  let load from =
    List.init 24 (fun i ->
        let from = (from + i) * 250 in
        let oid = Fs.create_exn fs ~content:(distinct_words ~from 250) in
        (oid, Printf.sprintf "z%04x" from))
  in
  let found docs =
    List.iter
      (fun (oid, word) ->
        check (Alcotest.list oid_t) ("search " ^ word) [ oid ]
          (List.map fst (Fs.search fs word)))
      docs
  in
  let first = load 0 in
  Fs.drain_index fs;
  found first;
  let second = load 24 in
  Fs.sync_exn ~mode:`Checkpoint fs;
  found second;
  check Alcotest.int "nothing left unindexed" 0 (Fs.index_backlog fs);
  Fs.verify fs;
  Fs.verify (Fs.open_existing_exn ~config dev);
  Fs.close fs

let suite =
  [
    Alcotest.test_case "create with names + content" `Quick
      test_create_with_names_and_content;
    Alcotest.test_case "multiple names per object" `Quick
      test_multiple_names_same_object;
    Alcotest.test_case "conjunction + ordering" `Quick
      test_lookup_conjunction_and_order;
    Alcotest.test_case "unname" `Quick test_unname;
    Alcotest.test_case "name requires live object" `Quick
      test_name_requires_live_object;
    Alcotest.test_case "delete cleans indexes" `Quick test_delete_cleans_indexes;
    Alcotest.test_case "eager reindex on mutation" `Quick
      test_mutation_reindexes_eagerly;
    Alcotest.test_case "lazy mode staleness" `Quick test_lazy_mode_staleness;
    Alcotest.test_case "lazy marks coalesce" `Quick test_lazy_marks_coalesce;
    Alcotest.test_case "off mode" `Quick test_off_mode_never_indexes;
    Alcotest.test_case "access interface" `Quick test_access_interface_via_core;
    Alcotest.test_case "survives reopen" `Quick test_survives_reopen;
    Alcotest.test_case "refine narrow/widen" `Quick test_refine_narrow_widen;
    Alcotest.test_case "refine alternate hierarchies" `Quick
      test_refine_alternate_hierarchies;
    Alcotest.test_case "refine empty result" `Quick test_refine_empty_result;
    Alcotest.test_case "refine fulltext+posix" `Quick
      test_refine_with_fulltext_and_posix;
    Alcotest.test_case "refine root on 4 shards" `Quick
      test_refine_root_spans_shards;
    Alcotest.test_case "query_string via Fs" `Quick test_query_string_through_fs;
    Alcotest.test_case "every namespace survives reopen" `Quick
      test_names_survive_reopen;
    Alcotest.test_case "admission: small creates never wedge the cache" `Quick
      test_admission_never_wedges;
    Alcotest.test_case "eager: an unindexable document fails no mutation" `Quick
      test_eager_unfit_document;
    Alcotest.test_case "eager: a document past one journal commit is indexed" `Quick
      test_eager_document_past_one_commit;
    Alcotest.test_case "checkpoint: an unindexable document seals every shard" `Quick
      test_checkpoint_seals_every_shard;
    Alcotest.test_case "a drain cuts a chunk that passes the budget" `Quick
      test_drain_cut_to_fit;
  ]
