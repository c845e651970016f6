module Fs = Hfad.Fs
module P = Hfad_posix.Posix_fs
module Path = Hfad_posix.Path
module Tag = Hfad_index.Tag
module Image_index = Hfad_index.Image_index
module H = Hfad_hierfs.Hierfs

let ensure_parent p path = P.mkdir_p_exn p (Path.parent path)

let photo_into_hfad p (photo : Corpus.photo) =
  ensure_parent p photo.Corpus.photo_path;
  let oid = P.create_file_exn ~content:photo.Corpus.caption p photo.Corpus.photo_path in
  let fs = P.fs p in
  List.iter (fun person -> Fs.name_exn fs oid Tag.Udef person) photo.Corpus.people;
  Fs.name_exn fs oid Tag.Udef photo.Corpus.place;
  Fs.name_exn fs oid Tag.Udef (string_of_int photo.Corpus.year);
  Fs.name_exn fs oid (Tag.Custom "camera") photo.Corpus.camera;
  Fs.name_exn fs oid Tag.App "photo-import";
  (match photo.Corpus.people with
  | owner :: _ -> Fs.name_exn fs oid Tag.User owner
  | [] -> ());
  Fs.name_exn fs oid (Tag.Custom "IMAGE")
    (Image_index.hash_to_value (Image_index.hash_of_bytes photo.Corpus.pixels));
  oid

let photos_into_hfad p photos = List.map (photo_into_hfad p) photos

let emails_into_hfad p emails =
  List.map
    (fun (e : Corpus.email) ->
      ensure_parent p e.Corpus.email_path;
      let content = e.Corpus.subject ^ "\n" ^ e.Corpus.body in
      let oid = P.create_file_exn ~content p e.Corpus.email_path in
      let fs = P.fs p in
      Fs.name_exn fs oid Tag.User e.Corpus.recipient;
      Fs.name_exn fs oid (Tag.Custom "from") e.Corpus.sender;
      Fs.name_exn fs oid Tag.Udef (string_of_int e.Corpus.email_year);
      Fs.name_exn fs oid Tag.App "mail-client";
      oid)
    emails

let source_into_hfad p files =
  List.map
    (fun (f : Corpus.source_file) ->
      ensure_parent p f.Corpus.source_path;
      let oid = P.create_file_exn ~content:f.Corpus.code p f.Corpus.source_path in
      Fs.name_exn (P.fs p) oid Tag.App "editor";
      oid)
    files

let into_hierfs h path content =
  H.mkdir_p h (Path.parent path);
  ignore (H.create_file ~content h path)

let photos_into_hierfs h photos =
  List.iter
    (fun (photo : Corpus.photo) ->
      into_hierfs h photo.Corpus.photo_path photo.Corpus.caption)
    photos

let emails_into_hierfs h emails =
  List.iter
    (fun (e : Corpus.email) ->
      into_hierfs h e.Corpus.email_path (e.Corpus.subject ^ "\n" ^ e.Corpus.body))
    emails

let source_into_hierfs h files =
  List.iter
    (fun (f : Corpus.source_file) ->
      into_hierfs h f.Corpus.source_path f.Corpus.code)
    files
