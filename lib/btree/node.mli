(** B+tree node pages: read and leaf-updated in place, decoded only to
    restructure.

    Lookups, range scans and the leaf updates that fit their page work on
    the pager's page bytes directly: they binary-search the page's slot
    directory, compare keys where they lie and allocate only the keys and
    values they return, and a leaf update moves the bytes after the one
    changed entry and the slots after its own, leaving exactly the page
    {!encode} would have written. The whole-node form {!t} is built, by
    {!decode}, only when a node must split, merge or rebalance, and by
    [Btree.verify]; the registry counter [btree.node_decodes] counts
    those decodes.

    Page layouts (all integers big-endian):

    Leaf:     [u8 tag=1] [u16 nkeys] [u32 next_leaf+1, 0 = none]
              then nkeys × (varint klen, key, varint vlen, value)
    Internal: [u8 tag=2] [u16 nkeys] [u32 child0]
              then nkeys × (varint klen, key, u32 child)

    Either kind ends in a slot directory: nkeys × u16, the offset of each
    entry, in key order from the page end down (entry 0's offset is in
    the last two bytes). Entries are packed in key order right after the
    header, and the gap between the last entry and the directory is
    zero. Each entry costs its bytes plus its 2-byte slot, and a page is
    at most 64 KiB.

    An internal node with keys [k0 < k1 < ... < k(n-1)] and children
    [c0 .. cn] routes a key [k] to [ci] where [i] is the number of
    separators [<= k]; i.e. subtree [ci] holds keys in [\[k(i-1), ki)]. *)

type t =
  | Leaf of { entries : (string * string) array; next : int option }
  | Internal of { keys : string array; children : int array }

val empty_leaf : unit -> t

val encoded_size : t -> int
(** Exact bytes of the encoded node, directory included: the page bytes
    outside its zero gap. *)

val leaf_entry_size : string -> string -> int
(** Encoded size contribution of one leaf entry, its slot included. *)

val internal_entry_size : string -> int
(** Encoded size contribution of one separator + child pointer, its slot
    included. *)

val header_size : int
(** Fixed bytes before the entries of either node kind: the offset of
    the first entry. *)

val encode : t -> Bytes.t -> unit
(** [encode node page] serializes into [page].
    @raise Invalid_argument if the node does not fit, or the page is
    over 64 KiB. *)

val decode : Bytes.t -> t
(** Walks the entries from the header; does not read the directory.
    Bumps [btree.node_decodes].
    @raise Failure on an unknown page tag, or when the directory does not
    fit behind the header or the entries run into it; a string that runs
    past the page end raises too. *)

(** {1 In place}

    These read the encoded page itself. A leaf entry is named by its
    index, [0 <= i < nkeys]. An entry is found through its slot, which
    must point into the entries; the end of the entries is read from the
    last slot. They raise [Failure] or [Invalid_argument] when the
    directory does not fit behind the header, a slot points outside the
    entries, or a string they reach runs past them. Besides the entries
    they need, they read only the last slot and the lengths of its
    entry. *)

val is_leaf : Bytes.t -> bool
(** @raise Failure on an unknown page tag. *)

val nkeys : Bytes.t -> int
(** Entries of a leaf, separators of an internal node. *)

val used : Bytes.t -> int
(** The page's {!encoded_size}, read in place. *)

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
(** [search page k] is the index of the entry with key [k], or [-i - 1]
    when there is none and [k] belongs at index [i]. *)

val lower_bound : Bytes.t -> string -> int
(** Index of the first entry with key [>= k]; {!nkeys} if none. *)

val floor_entry : Bytes.t -> string -> int
(** Index of the last entry with key [<= k]; [-1] if none. *)

val value_at : Bytes.t -> int -> string
(** The value of entry [i]. *)

val binding : Bytes.t -> int -> string * string
(** The key and value of entry [i]. *)

val fold_into :
  Bytes.t -> int -> int -> ('a -> string -> string -> 'a) -> 'a ref -> unit
(** [fold_into page i j f acc] sets [acc := f !acc k v] for the key [k]
    and value [v] of each entry from [i] to [j - 1], in key order. [acc]
    holds the fold so far even when [f] raises, and the only allocation
    is of the keys and values passed to [f]. *)

val put_at : Bytes.t -> int -> string -> string -> int
(** [put_at page (search page k) k v] binds [k] to [v] in place and
    returns the page's new {!encoded_size}, or returns [-1] and leaves
    the page untouched when the leaf would outgrow the page. *)

val remove_at : Bytes.t -> int -> int
(** [remove_at page i] deletes entry [i] (a non-negative {!search}
    result) and returns the page's new {!encoded_size}. *)

(** {2 Validation} *)

val slot_mismatch : Bytes.t -> int option
(** The first index whose slot differs from the offset of its entry as
    {!decode} walks the entries; [None] when the directory is right. *)
