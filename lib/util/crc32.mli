(** CRC-32 (IEEE 802.3 polynomial, reflected; the zlib/PNG checksum).

    Used as the torn-page detector: every on-device page carries a
    checksum of its payload, verified on read, and every journal record
    seals its page images with one.

    The kernel is slicing-by-8: eight 256-entry tables of native ints,
    so each step folds eight input bytes with eight independent table
    lookups and no boxed arithmetic. A head or tail shorter than eight
    bytes runs byte at a time through the first table. The values are
    those of the plain bit-at-a-time definition. *)

val bytes : ?crc:int32 -> Bytes.t -> pos:int -> len:int -> int32
(** Checksum of a byte range. [crc] (default [0l], the checksum of the
    empty string) is the checksum of the bytes that logically precede
    the range, as in zlib's [crc32(crc, buf, len)]: so
    [bytes ~crc:(bytes b ~pos ~len:k) b ~pos:(pos + k) ~len:(len - k)]
    equals [bytes b ~pos ~len], and one checksum can chain across
    buffers without joining them.
    @raise Invalid_argument on bad range. *)

val string : string -> int32
(** Checksum of a whole string. *)
