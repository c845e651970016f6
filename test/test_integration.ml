(* End-to-end integration: one journaled file system driven through every
   public surface — POSIX veneer, native tags, boolean queries, full-text
   search, refinement sessions, byte-granular edits, image similarity,
   compaction, checkpoint, crash snapshot, reopen — with full structural
   verification at each stage. *)

module Device = Hfad_blockdev.Device
module Fs = Hfad.Fs
module Refine = Hfad.Refine
module Tag = Hfad_index.Tag
module Query = Hfad_index.Query
module Image_index = Hfad_index.Image_index
module Osd = Hfad_osd.Osd
module Oid = Hfad_osd.Oid
module P = Hfad_posix.Posix_fs

let check = Alcotest.check
let oid_t = Alcotest.testable Oid.pp Oid.equal

let test_full_lifecycle () =
  let dev = Device.create ~block_size:1024 ~blocks:32768 () in
  let fs = Fs.format ~config:(Fs.Config.v ~cache_pages:2048 ~index_mode:Fs.Lazy ~journal_pages:256 ()) dev in
  let p = P.mount fs in

  (* 1. Build a small world through the POSIX veneer. *)
  P.mkdir_p_exn p "/home/margo/papers";
  P.mkdir_p_exn p "/home/nick/code";
  let paper =
    P.create_file_exn
      ~content:"the hierarchical namespace is an albatross around our necks"
      p "/home/margo/papers/hfad.txt"
  in
  let code =
    P.create_file_exn ~content:"let rec descend btree = descend btree" p
      "/home/nick/code/btree.ml"
  in
  (* 2. Layer native names on top of the same objects. *)
  Fs.name_exn fs paper Tag.User "margo";
  Fs.name_exn fs paper Tag.App "latex";
  Fs.name_exn fs paper Tag.Udef "hotos";
  Fs.name_exn fs code Tag.User "nick";
  Fs.name_exn fs code Tag.App "editor";
  (* 3. An object with no path at all: pure tag-space. *)
  let pathless =
    Fs.create_exn fs
      ~names:[ (Tag.User, "margo"); (Tag.Udef, "scratch") ]
      ~content:"unnamed scratch buffer about the albatross"
  in
  (* 4. Image plug-in: the pixels' hash is one more name. *)
  let pixels = String.init 2048 (fun i -> Char.chr (i * 13 mod 251)) in
  let hash = Image_index.hash_to_value (Image_index.hash_of_bytes pixels) in
  Fs.name_exn fs paper (Tag.Custom "IMAGE") hash;

  (* Lazy index: content not yet searchable; drain and verify. *)
  check (Alcotest.list oid_t) "stale before drain" []
    (List.map fst (Fs.search fs "albatross"));
  Fs.drain_index fs;
  check (Alcotest.list oid_t) "both albatross docs found" [ paper; pathless ]
    (List.sort Oid.compare (List.map fst (Fs.search fs "albatross")));

  (* 5. Boolean query across tag kinds. *)
  check (Alcotest.list oid_t) "margo's non-scratch objects" [ paper ]
    (Fs.query_string fs "USER/margo & !UDEF/scratch");
  check (Alcotest.list oid_t) "fulltext & attribute" [ paper ]
    (Fs.query_string fs "FULLTEXT/albatross & APP/latex");

  (* 6. Refinement session. *)
  let session = Refine.narrow (Refine.start fs) (Tag.User, "margo") in
  check Alcotest.int "margo's universe" 2 (Refine.count session);

  (* 7. Byte-granular edit keeps everything consistent. *)
  Fs.insert_exn fs paper ~off:0 "ABSTRACT. ";
  Fs.drain_index fs;
  check (Alcotest.list oid_t) "reindexed after insert" [ paper ]
    (List.map fst (Fs.search fs "abstract albatross"));
  check Alcotest.string "posix view sees the edit" "ABSTRACT. the"
    (String.sub (P.read_file p "/home/margo/papers/hfad.txt") 0 13);

  (* 8. Compact the edited object; nothing observable changes. *)
  let before = Fs.read_all fs paper in
  Osd.compact (Fs.osd fs) paper;
  check Alcotest.string "compaction invisible" before (Fs.read_all fs paper);

  (* 9. Checkpoint, snapshot the device, reopen, re-verify everything. *)
  Fs.sync_exn ~mode:`Checkpoint fs;
  let img = Filename.temp_file "hfad_integration" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove img with Sys_error _ -> ())
    (fun () ->
      Device.save dev img;
      let fs2 = Fs.open_existing_exn ~config:(Fs.Config.v ~index_mode:Fs.Lazy ()) (Device.load img) in
      let p2 = P.mount fs2 in
      check Alcotest.string "content survives" before
        (P.read_file p2 "/home/margo/papers/hfad.txt");
      check (Alcotest.list oid_t) "queries survive" [ paper ]
        (Fs.query_string fs2 "USER/margo & APP/latex");
      check (Alcotest.list oid_t) "fulltext survives" [ paper; pathless ]
        (List.sort Oid.compare (List.map fst (Fs.search fs2 "albatross")));
      check (Alcotest.list oid_t) "image index survives" [ paper ]
        (Fs.lookup fs2 [ (Tag.Custom "IMAGE", hash) ]);
      check
        (Alcotest.list Alcotest.string)
        "namespace survives"
        [ "/"; "/home"; "/home/margo"; "/home/margo/papers";
          "/home/margo/papers/hfad.txt"; "/home/nick"; "/home/nick/code";
          "/home/nick/code/btree.ml" ]
        (List.map fst (P.walk p2 "/"));
      Fs.verify fs2;
      P.verify p2);

  (* 10. Deleting the pathless object scrubs every index. *)
  Fs.delete_exn fs pathless;
  Fs.drain_index fs;
  check (Alcotest.list oid_t) "only the paper remains" [ paper ]
    (List.map fst (Fs.search fs "albatross"));
  check (Alcotest.list oid_t) "tag scrubbed" []
    (Fs.lookup fs [ (Tag.Udef, "scratch") ]);
  Fs.verify fs;
  P.verify p

let test_two_mounts_share_state () =
  (* Two veneer mounts over one Fs are views of the same namespace. *)
  let dev = Device.create ~block_size:1024 ~blocks:8192 () in
  let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Off ()) dev in
  let a = P.mount fs in
  let b = P.mount fs in
  P.mkdir_p_exn a "/shared";
  ignore (P.create_file_exn ~content:"x" a "/shared/f");
  check Alcotest.string "visible through b" "x" (P.read_file b "/shared/f");
  P.unlink_exn b "/shared/f";
  check Alcotest.bool "gone through a" false (P.exists a "/shared/f")

let suite =
  [
    Alcotest.test_case "full lifecycle" `Quick test_full_lifecycle;
    Alcotest.test_case "two mounts share state" `Quick test_two_mounts_share_state;
  ]
