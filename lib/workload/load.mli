(** Load corpora into both systems, identically.

    For hFAD, attributes become tags (Table 1's manual/application rows):
    photo subjects and places are [UDEF] annotations, the owner is
    [USER], the importing application / camera go to [APP] and a custom
    tag, captions and bodies feed the full-text index, and the pixels'
    hash becomes an [IMAGE] name ({!Hfad_index.Image_index}). The POSIX
    veneer also gets the canonical path, so both naming worlds
    coexist.

    For the hierarchical baseline the {e only} name is the path — which
    is the paper's whole point — and content search goes through the
    external {!Hfad_hierfs.Desktop_search} index. *)

val photo_into_hfad :
  Hfad_posix.Posix_fs.t -> Corpus.photo -> Hfad_osd.Oid.t
(** Create the file (path + content = caption), tag it, and name it
    [IMAGE/<pixel hash>] — every name through [Fs], so it lands on the
    object's own shard. *)

val photos_into_hfad :
  Hfad_posix.Posix_fs.t -> Corpus.photo list -> Hfad_osd.Oid.t list

val emails_into_hfad :
  Hfad_posix.Posix_fs.t -> Corpus.email list -> Hfad_osd.Oid.t list
(** Sender/recipient become [USER] tags, the subject topic a [UDEF] tag,
    body text is content. *)

val source_into_hfad :
  Hfad_posix.Posix_fs.t -> Corpus.source_file list -> Hfad_osd.Oid.t list

val photos_into_hierfs : Hfad_hierfs.Hierfs.t -> Corpus.photo list -> unit
(** Same files (caption as content) under the same paths; attributes
    exist only as path components, as in a real hierarchical library. *)

val emails_into_hierfs : Hfad_hierfs.Hierfs.t -> Corpus.email list -> unit
val source_into_hierfs : Hfad_hierfs.Hierfs.t -> Corpus.source_file list -> unit
