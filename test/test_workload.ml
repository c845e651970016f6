(* Tests for Hfad_workload: corpus generation and loading into both
   systems. *)

module Device = Hfad_blockdev.Device
module Rng = Hfad_util.Rng
module Corpus = Hfad_workload.Corpus
module Load = Hfad_workload.Load
module Fs = Hfad.Fs
module P = Hfad_posix.Posix_fs
module Tag = Hfad_index.Tag
module Image_index = Hfad_index.Image_index
module H = Hfad_hierfs.Hierfs
module Search = Hfad_hierfs.Desktop_search

let check = Alcotest.check

let test_photos_deterministic () =
  let a = Corpus.photos (Rng.create 1L) ~count:50 in
  let b = Corpus.photos (Rng.create 1L) ~count:50 in
  check Alcotest.bool "same corpus from same seed" true (a = b);
  let c = Corpus.photos (Rng.create 2L) ~count:50 in
  check Alcotest.bool "different seed differs" true (a <> c)

let test_photos_well_formed () =
  let photos = Corpus.photos (Rng.create 3L) ~count:200 in
  check Alcotest.int "count" 200 (List.length photos);
  let paths = List.map (fun p -> p.Corpus.photo_path) photos in
  check Alcotest.int "paths unique" 200 (List.length (List.sort_uniq compare paths));
  List.iter
    (fun p ->
      check Alcotest.bool "has people" true (p.Corpus.people <> []);
      check Alcotest.bool "year plausible" true
        (p.Corpus.year >= 2000 && p.Corpus.year <= 2009);
      check Alcotest.bool "pixels sized" true (String.length p.Corpus.pixels = 512);
      check Alcotest.bool "caption mentions place" true
        (Hfad_util.Strx.starts_with ~prefix:"/photos/" p.Corpus.photo_path))
    photos

let test_photo_popularity_skewed () =
  (* Zipf: the most popular person should appear in far more photos than
     the median person. *)
  let photos = Corpus.photos (Rng.create 4L) ~count:1000 in
  let counts = Hashtbl.create 32 in
  List.iter
    (fun p ->
      List.iter
        (fun person ->
          Hashtbl.replace counts person
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts person)))
        p.Corpus.people)
    photos;
  let sorted =
    Hashtbl.fold (fun _ n acc -> n :: acc) counts []
    |> List.sort (fun a b -> compare b a)
  in
  match sorted with
  | top :: rest ->
      let median = List.nth rest (List.length rest / 2) in
      check Alcotest.bool "heavy head" true (top > 3 * median)
  | [] -> Alcotest.fail "no people"

let test_emails_and_source_well_formed () =
  let emails = Corpus.emails (Rng.create 5L) ~count:100 in
  check Alcotest.int "emails" 100 (List.length emails);
  check Alcotest.int "email paths unique" 100
    (List.length (List.sort_uniq compare (List.map (fun e -> e.Corpus.email_path) emails)));
  let sources = Corpus.source_tree (Rng.create 6L) ~files:100 in
  check Alcotest.int "sources" 100 (List.length sources);
  check Alcotest.int "source paths unique" 100
    (List.length
       (List.sort_uniq compare (List.map (fun s -> s.Corpus.source_path) sources)))

let mk_hfad () =
  let dev = Device.create ~block_size:1024 ~blocks:65536 () in
  let fs = Fs.format ~config:(Fs.Config.v ~cache_pages:512 ~index_mode:Fs.Eager ()) dev in
  P.mount fs

let test_load_photos_into_hfad () =
  let p = mk_hfad () in
  let photos = Corpus.photos (Rng.create 7L) ~count:30 in
  let oids = Load.photos_into_hfad p photos in
  check Alcotest.int "all loaded" 30 (List.length oids);
  let fs = P.fs p in
  (* Every photo is reachable by path, by place tag, and by caption. *)
  List.iter2
    (fun (photo : Corpus.photo) oid ->
      check Alcotest.bool "by path" true
        (Hfad_osd.Oid.equal oid (P.resolve p photo.Corpus.photo_path));
      check Alcotest.bool "by place tag" true
        (List.exists (Hfad_osd.Oid.equal oid)
           (Fs.lookup fs [ (Tag.Udef, photo.Corpus.place) ]));
      check Alcotest.bool "by person tag" true
        (List.exists (Hfad_osd.Oid.equal oid)
           (Fs.lookup fs [ (Tag.Udef, List.hd photo.Corpus.people) ])))
    photos oids;
  Fs.verify fs;
  P.verify p

let test_load_photos_into_hierfs_parity () =
  let dev = Device.create ~block_size:1024 ~blocks:65536 () in
  let h = H.format ~config:(H.Config.v ~cache_pages:512 ()) dev in
  let photos = Corpus.photos (Rng.create 7L) ~count:30 in
  Load.photos_into_hierfs h photos;
  List.iter
    (fun (photo : Corpus.photo) ->
      check Alcotest.string "same content at same path" photo.Corpus.caption
        (H.read_file h photo.Corpus.photo_path))
    photos;
  H.verify h;
  (* Desktop search finds the same photos by caption terms. *)
  let s = Search.create h in
  check Alcotest.int "indexed all" 30 (Search.index_tree s "/");
  let sample = List.hd photos in
  let hits = Search.search s sample.Corpus.place in
  check Alcotest.bool "searchable" true
    (List.mem sample.Corpus.photo_path hits)

let test_load_emails_both () =
  let p = mk_hfad () in
  let emails = Corpus.emails (Rng.create 8L) ~count:40 in
  let _ = Load.emails_into_hfad p emails in
  let fs = P.fs p in
  let e = List.hd emails in
  check Alcotest.bool "by recipient" true
    (Fs.lookup fs [ (Tag.User, e.Corpus.recipient) ] <> []);
  check Alcotest.bool "by sender" true
    (Fs.lookup fs [ (Tag.Custom "from", e.Corpus.sender) ] <> []);
  (* §2.1's question — "where is your email?" — answered by content. *)
  let by_content = Fs.search fs e.Corpus.subject in
  check Alcotest.bool "by content" true (by_content <> []);
  Fs.verify fs

let test_load_source_both () =
  let p = mk_hfad () in
  let sources = Corpus.source_tree (Rng.create 9L) ~files:40 in
  let _ = Load.source_into_hfad p sources in
  let dev = Device.create ~block_size:1024 ~blocks:65536 () in
  let h = H.format dev in
  Load.source_into_hierfs h sources;
  List.iter
    (fun (s : Corpus.source_file) ->
      check Alcotest.string "hfad content" s.Corpus.code
        (P.read_file p s.Corpus.source_path);
      check Alcotest.string "hierfs content" s.Corpus.code
        (H.read_file h s.Corpus.source_path))
    sources

module Trace = Hfad_workload.Trace

let test_trace_deterministic_and_mixed () =
  let photos = Corpus.photos (Rng.create 1L) ~count:100 in
  let a = Trace.generate (Rng.create 9L) ~photos ~ops:500 in
  let b = Trace.generate (Rng.create 9L) ~photos ~ops:500 in
  check Alcotest.bool "deterministic" true (a = b);
  check Alcotest.int "length" 500 (List.length a);
  let count pred = List.length (List.filter pred a) in
  let lookups = count (function Trace.Lookup_attr _ -> true | _ -> false) in
  let searches = count (function Trace.Search_content _ -> true | _ -> false) in
  let opens = count (function Trace.Open_path _ -> true | _ -> false) in
  let edits = count (function Trace.Edit _ -> true | _ -> false) in
  check Alcotest.int "partition" 500 (lookups + searches + opens + edits);
  check Alcotest.bool "all op kinds present" true
    (lookups > 0 && searches > 0 && opens > 0 && edits > 0)

let test_trace_replays_equivalently () =
  let photos = Corpus.photos (Rng.create 2L) ~count:60 in
  let trace = Trace.generate (Rng.create 3L) ~photos ~ops:120 in
  (* hFAD *)
  let p = mk_hfad () in
  let _ = Load.photos_into_hfad p photos in
  let f = Trace.replay_hfad p trace in
  (* baseline *)
  let dev = Device.create ~block_size:1024 ~blocks:65536 () in
  let h = H.format ~config:(H.Config.v ~cache_pages:512 ()) dev in
  Load.photos_into_hierfs h photos;
  let ds = Search.create h in
  ignore (Search.index_tree ds "/");
  let g = Trace.replay_hierfs h ds trace in
  (* Both executed the same stream: identical op counts, and identical
     bytes from the Open_path ops (same files, same contents). *)
  check Alcotest.int "same query count" f.Trace.lookups g.Trace.lookups;
  check Alcotest.int "same edits" f.Trace.edits g.Trace.edits;
  check Alcotest.int "same bytes read" f.Trace.bytes_read g.Trace.bytes_read;
  check Alcotest.bool "queries returned results" true (f.Trace.search_hits > 0)

(* Every name goes through Fs, so each photo's IMAGE name lives on its
   own object's shard: found by exact and by near hash, and gone with
   the photo. *)
let test_photos_by_hash shards () =
  let dev = Device.create ~block_size:4096 ~blocks:16384 () in
  let fs = Fs.format ~config:(Fs.Config.v ~shards ~journal_pages:64 ()) dev in
  let p = P.mount fs in
  let photos = Corpus.photos (Rng.create 9L) ~count:40 in
  let oids = Load.photos_into_hfad p photos in
  let image = Tag.Custom "IMAGE" in
  let names = Fs.list_names fs image ~prefix:"" in
  List.iter2
    (fun (photo : Corpus.photo) oid ->
      let h = Image_index.hash_of_bytes photo.Corpus.pixels in
      check Alcotest.bool "exact hash" true
        (List.mem oid (Fs.lookup fs [ (image, Image_index.hash_to_value h) ]));
      check Alcotest.bool "near hash, distance 0" true
        (List.mem (oid, 0) (Image_index.near h ~max_distance:0 names)))
    photos oids;
  List.iter (fun (photo : Corpus.photo) -> P.unlink_exn p photo.Corpus.photo_path) photos;
  check Alcotest.int "no IMAGE name left" 0
    (List.length (Fs.list_names fs image ~prefix:""));
  Fs.verify fs;
  Fs.close fs

let suite =
  [
    Alcotest.test_case "photos deterministic" `Quick test_photos_deterministic;
    Alcotest.test_case "photos well-formed" `Quick test_photos_well_formed;
    Alcotest.test_case "photo popularity skew" `Quick test_photo_popularity_skewed;
    Alcotest.test_case "emails + source well-formed" `Quick
      test_emails_and_source_well_formed;
    Alcotest.test_case "load photos into hfad" `Quick test_load_photos_into_hfad;
    Alcotest.test_case "hierfs parity" `Quick test_load_photos_into_hierfs_parity;
    Alcotest.test_case "load emails" `Quick test_load_emails_both;
    Alcotest.test_case "load source" `Quick test_load_source_both;
    Alcotest.test_case "trace generation" `Quick test_trace_deterministic_and_mixed;
    Alcotest.test_case "trace replay parity" `Quick test_trace_replays_equivalently;
    Alcotest.test_case "photos found by image hash, 1 shard" `Quick
      (test_photos_by_hash 1);
    Alcotest.test_case "photos found by image hash, 4 shards" `Quick
      (test_photos_by_hash 4);
  ]
