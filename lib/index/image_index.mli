(** Image hashes — the paper's plug-in example, as a codec and a
    distance filter.

    §3.2: "neither a full-text index nor a key/value store is likely to
    be suitable for image indexing", and §4 asks whether hFAD should
    "support arbitrary types of indexing through, for example, a plug-in
    model". This module is that plug-in, built for the simulated image
    payloads of the photo-library workload (we have no real image
    corpus — see DESIGN.md substitutions).

    The feature is a 64-bit {e average hash}: the byte stream is bucketed
    into 64 equal windows, each window's mean intensity is compared to
    the global mean, one bit per window. Near-duplicate payloads (small
    pixel perturbations) land within a small Hamming distance — the
    property real perceptual hashes (pHash/aHash) provide for photos.

    The hash is stored as an ordinary name: [Custom "IMAGE"] with the
    hash rendered as 16 hex digits ({!hash_to_value}), attached with
    [Fs.name] like any other tag, so it is routed, journaled, captured
    by snapshots and dropped with its object. Exact-duplicate lookup is
    [Fs.lookup]; similarity lookup is {!near} over
    [Fs.list_names fs (Custom "IMAGE") ~prefix:""]. *)

val hash_of_bytes : string -> int64
(** The 64-bit average hash of a payload. Empty input hashes to 0. *)

val hash_to_value : int64 -> string
(** 16-digit lowercase hex, the [IMAGE] name's value. *)

val value_to_hash : string -> int64
(** @raise Invalid_argument on malformed input. *)

val hamming : int64 -> int64 -> int
(** Bit distance between two hashes. *)

val near :
  int64 ->
  max_distance:int ->
  (string * Hfad_osd.Oid.t) list ->
  (Hfad_osd.Oid.t * int) list
(** [near h ~max_distance names] keeps the [(value, oid)] names whose
    hash lies within [max_distance] bits of [h], as [(oid, distance)]
    sorted by distance, then OID. A value that is not a hash matches
    nothing. *)
