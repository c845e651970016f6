(* Photo library: the paper's §1 motivating workload.

   "One might want to access a picture, for instance, based on who is in
   it, when it was taken, where it was taken, etc."

   Generates a synthetic library, loads it into hFAD, and answers
   exactly those questions — by person, place, year, camera, similarity
   — then contrasts with what the pathname alone can express.

   Run with: dune exec examples/photo_library.exe *)

module Device = Hfad_blockdev.Device
module Rng = Hfad_util.Rng
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module P = Hfad_posix.Posix_fs
module Corpus = Hfad_workload.Corpus
module Load = Hfad_workload.Load
module Image_index = Hfad_index.Image_index

let say fmt = Format.printf (fmt ^^ "@.")

let () =
  let dev = Device.create ~block_size:4096 ~blocks:65536 () in
  let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) dev in
  let p = P.mount fs in

  let photos = Corpus.photos (Rng.create 2009L) ~count:500 in
  let _oids = Load.photos_into_hfad p photos in
  say "loaded %d photos (each tagged with people, place, year, camera)"
    (List.length photos);

  let count label pairs =
    say "  %-46s %4d photos" label (List.length (Fs.lookup fs pairs))
  in
  say "";
  say "who / where / when queries (no paths involved):";
  count "UDEF/margo (who)" [ (Tag.Udef, "margo") ];
  count "UDEF/hawaii (where)" [ (Tag.Udef, "hawaii") ];
  count "UDEF/2008 (when)" [ (Tag.Udef, "2008") ];
  count "margo AND hawaii" [ (Tag.Udef, "margo"); (Tag.Udef, "hawaii") ];
  count "margo AND hawaii AND 2008"
    [ (Tag.Udef, "margo"); (Tag.Udef, "hawaii"); (Tag.Udef, "2008") ];
  count "CAMERA/nikon-d90" [ (Tag.Custom "camera", "nikon-d90") ];

  say "";
  say "free-text caption search:";
  let hits = Fs.search fs "hawaii" in
  say "  'hawaii' matches %d captions; best hit:" (List.length hits);
  (match hits with
  | (oid, score) :: _ ->
      say "    [%.2f] %s" score (Fs.read fs oid ~off:0 ~len:60)
  | [] -> say "    (none)");

  (* Similarity: find near-duplicate shots by perceptual hash. *)
  say "";
  say "image similarity (the plug-in index of paper section 4):";
  let sample = List.nth photos 7 in
  let sample_hash = Image_index.hash_of_bytes sample.Corpus.pixels in
  let near =
    Image_index.near sample_hash ~max_distance:8
      (Fs.list_names fs (Tag.Custom "IMAGE") ~prefix:"")
  in
  say "  photos within hamming distance 8 of %s: %d"
    (Hfad_posix.Path.basename sample.Corpus.photo_path)
    (List.length near);

  (* The same object remains reachable the old way, of course. *)
  say "";
  say "POSIX view of the same library:";
  say "  %s -> %s" sample.Corpus.photo_path
    (Hfad_osd.Oid.to_string (P.resolve p sample.Corpus.photo_path));
  say "  ls /photos -> [%s]"
    (String.concat "; " (P.readdir p "/photos"));

  (* And the restrictiveness point (§2.2): one photo, many collections,
     no copies. *)
  let oid = P.resolve p sample.Corpus.photo_path in
  Fs.name_exn fs oid Tag.Udef "best-of";
  Fs.name_exn fs oid Tag.Udef "screensaver";
  say "";
  say "added %s to collections 'best-of' and 'screensaver' without copying;"
    (Hfad_posix.Path.basename sample.Corpus.photo_path);
  say "it now carries %d names." (List.length (Fs.names_of fs oid))
