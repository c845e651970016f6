(** B+tree node pages: read and leaf-updated in place, decoded only to
    restructure.

    Lookups, range scans and the leaf updates that fit their page work on
    the pager's page bytes directly: they compare keys where they lie and
    allocate only the keys and values they return, and a leaf update
    moves the bytes after the one changed entry, leaving exactly the
    page {!encode} would have written. The whole-node form {!t} is
    built, by {!decode}, only when a node must split, merge or
    rebalance, and by [Btree.verify]; the registry counter
    [btree.node_decodes] counts those decodes.

    Page layouts (all integers big-endian):

    Leaf:     [u8 tag=1] [u16 nkeys] [u32 next_leaf+1, 0 = none]
              then nkeys × (varint klen, key, varint vlen, value)
    Internal: [u8 tag=2] [u16 nkeys] [u32 child0]
              then nkeys × (varint klen, key, u32 child)

    An internal node with keys [k0 < k1 < ... < k(n-1)] and children
    [c0 .. cn] routes a key [k] to [ci] where [i] is the number of
    separators [<= k]; i.e. subtree [ci] holds keys in [\[k(i-1), ki)].

    Entries are variable-length and unindexed, so every in-place search
    is a linear scan of the page. *)

type t =
  | Leaf of { entries : (string * string) array; next : int option }
  | Internal of { keys : string array; children : int array }

val empty_leaf : unit -> t

val encoded_size : t -> int
(** Exact size in bytes of the encoded node. *)

val leaf_entry_size : string -> string -> int
(** Encoded size contribution of one leaf entry. *)

val internal_entry_size : string -> int
(** Encoded size contribution of one separator + child pointer. *)

val header_size : int
(** Fixed bytes before the entries of either node kind: the offset of
    the first entry. *)

val encode : t -> Bytes.t -> unit
(** [encode node page] serializes into [page].
    @raise Invalid_argument if the node does not fit. *)

val decode : Bytes.t -> t
(** Bumps [btree.node_decodes].
    @raise Failure on an unknown page tag; a page whose entries run past
    its end raises too. *)

(** {1 In place}

    These read the encoded page itself. A leaf entry is named by the
    offset of its first byte; the first entry is at {!header_size}. They
    raise [Failure] or [Invalid_argument] when a string they reach runs
    past the page end, and never read beyond the entries they need. *)

val is_leaf : Bytes.t -> bool
(** @raise Failure on an unknown page tag. *)

val nkeys : Bytes.t -> int
(** Entries of a leaf, separators of an internal node. *)

val used : Bytes.t -> int
(** Bytes before the zeroed tail: [encoded_size (decode page)]. *)

(** {2 Internal nodes} *)

val child_for : Bytes.t -> string -> int
(** [child_for page k] is the page number of the child routing [k]. *)

val route : Bytes.t -> string -> int
(** [route page k] is the index of the child routing [k]: the number of
    separators [<= k]. *)

val child : Bytes.t -> int -> int
(** [child page i] is the page number of child [i], [0 <= i <= nkeys].
    @raise Invalid_argument on any other [i]. *)

val children : Bytes.t -> int array
(** Every child page number of an internal node, in order; [[||]] for a
    leaf. *)

(** {2 Leaves} *)

val next_leaf : Bytes.t -> int option

val search : Bytes.t -> string -> int
(** [search page k] is the offset of the entry with key [k], or
    [-o - 1] when there is none and [k] belongs at offset [o]. *)

val lower_bound : Bytes.t -> string -> int
(** Offset of the first entry with key [>= k]; {!used} if none. *)

val floor_entry : Bytes.t -> string -> int
(** Offset of the last entry with key [<= k]; [-1] if none. *)

val last_entry : Bytes.t -> int
(** Offset of the last entry; [-1] for an empty leaf. *)

val next_entry : Bytes.t -> int -> int
(** Offset just past the entry at the given offset. *)

val compare_key : Bytes.t -> int -> string -> int
(** [compare_key page off k] has the sign of
    [String.compare (key_at page off) k], without copying the key. *)

val key_at : Bytes.t -> int -> string
val value_at : Bytes.t -> int -> string
val binding : Bytes.t -> int -> string * string

val put_at : Bytes.t -> int -> string -> string -> int
(** [put_at page (search page k) k v] binds [k] to [v] in place and
    returns the new {!used}, or returns [-1] and leaves the page untouched
    when the leaf would outgrow the page. *)

val remove_at : Bytes.t -> int -> int
(** [remove_at page off] deletes the entry at [off] (a non-negative
    {!search} result) and returns the new {!used}. *)
