(** B+tree over pager pages — the system's universal index.

    The paper represents {e everything} as Berkeley-DB-style B-trees:
    object extent maps keyed by file offset, the OID → metadata master
    index, pathname and attribute indexes (§3.4). This module is that
    substrate, written from scratch.

    Keys and values are arbitrary byte strings ordered by
    [String.compare]; order-sensitive integer keys should be encoded with
    {!Hfad_util.Codec.encode_i64_key}. The empty key [""] sorts first and
    is what the paper calls the "NULL key" used to store per-object
    metadata inside the object's own B-tree.

    Structure: size-calibrated nodes (a node splits when its encoding
    exceeds the page, merges or rebalances with a sibling when it falls
    below a quarter page), leaves linked left-to-right for range scans,
    and an {e anchored root}: the root never changes page number, so a
    tree is durably identified by one page id.

    Concurrency: a tree optionally participates in the system-wide
    shared/exclusive discipline — pass a {!Hfad_util.Rwlock.t} at
    {!create}/{!open_tree} and every read entry point ([find], range
    scans, [verify], ...) holds the shared side while every mutation
    ([put], [remove], [apply_sorted], [clear], [destroy]) holds the
    exclusive side. The lock is reentrant, so a tree nested under an OSD
    that already holds a side adds only a counter bump. Without a lock
    (the default), the old contract applies: callers serialize access.
    Stats are atomic either way, so concurrent shared-side descents never
    lose counts.

    Every root-to-leaf descent and every node visit is counted — these
    are the "index traversals" of §2.3 that experiment C1 measures. *)

type t

type allocator = {
  alloc_page : unit -> int;  (** provide a fresh page id *)
  free_page : int -> unit;   (** release a page id *)
}
(** Page provisioning hooks, normally backed by {!Hfad_alloc.Buddy}. *)

exception Key_too_large of int
exception Value_too_large of int

val create :
  ?lock:Hfad_util.Rwlock.t -> Hfad_pager.Pager.t -> allocator -> root:int -> t
(** [create pager alloc ~root] initializes page [root] as an empty tree
    and returns a handle. [root] must be a page the caller owns. [lock]
    opts the tree into the shared/exclusive discipline (see above). *)

val open_tree :
  ?lock:Hfad_util.Rwlock.t -> Hfad_pager.Pager.t -> allocator -> root:int -> t
(** [open_tree pager alloc ~root] returns a handle onto an existing tree
    whose root page is [root] (as left by {!create} on a previous run or
    handle). *)

val root : t -> int
(** The tree's permanent root page id. *)

val max_key_size : t -> int
(** Largest accepted key, [page_size / 8 - 8] bytes. *)

val max_value_size : t -> int
(** Largest accepted value, [page_size / 4] bytes. Larger payloads belong
    in the OSD as object bytes, not in an index. *)

(** {1 Point operations} *)

val find : t -> string -> string option
val mem : t -> string -> bool

val put : t -> key:string -> value:string -> unit
(** Insert or replace. @raise Key_too_large / @raise Value_too_large when
    a bound is exceeded. *)

val remove : t -> string -> bool
(** [remove t k] deletes [k]; returns whether it was present. *)

val apply_sorted : t -> (string * (string option -> string option)) list -> unit
(** [apply_sorted t changes] rebinds every key of [changes], whose keys
    must be strictly ascending: [f] is given the key's current value
    ([None] when unbound) and returns its new one ([None] unbinds it).
    The whole batch runs under one exclusive section, as one
    left-to-right pass:
    - it stays on the current leaf while the next key is at most that
      leaf's last key (leaves partition the key space, so no fence keys
      are needed), and descends from the root only for a key beyond it;
    - a change that fits is made in place, and a binding whose value
      does not change is not written, so a batch that changes nothing
      dirties no page;
    - a change that would split its leaf, or leave it below its minimum
      fill, takes the ordinary root descent of {!put} or {!remove}, and
      the next key then descends afresh.

    The resulting bindings are those of the same changes made one by one
    with {!put} and {!remove}. Each [f] runs exactly once, in key order,
    so a later key's [f] may depend on what an earlier one saw; [f] must
    not touch the tree.

    @raise Invalid_argument when the keys are not strictly ascending, and
    {!Key_too_large} for an oversized key, before anything changes.
    @raise Value_too_large for an oversized new value, and whatever an
    [f] raises, with the changes before it applied. *)

val footprint : t -> (string * int option) list -> int
(** [footprint t changes] bounds the pages {!apply_sorted} would dirty
    for a batch with these strictly ascending keys, each paired with the
    longest value its change may bind ([None]: it only unbinds). It
    writes nothing and holds the shared side; the walk is the batch's
    own, so it visits the pages the batch would visit.

    The count is each distinct leaf the batch would land on, each
    internal node its descents pass through, and an allowance for
    restructuring: the pages a leaf's growth would split off, the
    sibling of a leaf that could fall below its minimum fill, and an
    internal page per eight new leaves. It is an estimate meant to err
    high, not a guarantee.
    @raise Invalid_argument when the keys are not strictly ascending. *)

(** {1 Ordered access}

    Ranges are half-open [\[lo, hi)]; omitting a bound leaves that side
    unbounded. Callbacks must not modify the tree: they run while the
    current leaf's page is pinned in the pager, reading its bytes in
    place. *)

val fold_range :
  t -> ?lo:string -> ?hi:string -> init:'a -> ('a -> string -> string -> 'a) -> 'a

val iter_range : t -> ?lo:string -> ?hi:string -> (string -> string -> unit) -> unit

val seek : t -> string -> (string * string) option
(** First binding with key [>= k]. *)

val next_after : t -> string -> (string * string) option
(** First binding with key [> k]. *)

val floor_binding : t -> string -> (string * string) option
(** Last binding with key [<= k] — the predecessor query the OSD uses to
    find the extent covering a byte offset. *)

val fold_prefix :
  t -> prefix:string -> init:'a -> ('a -> string -> string -> 'a) -> 'a
(** Bindings whose key starts with [prefix]. *)

val min_binding : t -> (string * string) option
val max_binding : t -> (string * string) option

val to_list : t -> (string * string) list
(** All bindings in key order. *)

val cardinal : t -> int
(** Number of bindings (leaf scan, O(n)). *)

val is_empty : t -> bool

val clear : t -> unit
(** Remove every binding, freeing all pages except the root. *)

val destroy : t -> unit
(** {!clear}, then free the root page too. The handle must not be used
    afterwards. *)

(** {1 Measurement and validation} *)

type stats = {
  descents : int;       (** root-to-leaf traversals started *)
  nodes_visited : int;  (** node loads — the paper's "index traversals" *)
  splits : int;
  merges : int;
  rebalances : int;
}

val stats : t -> stats
val reset_stats : t -> unit

val height : t -> int
(** Levels from root to leaf inclusive (1 for a lone leaf). *)

val fold_pages : t -> init:'a -> ('a -> int -> 'a) -> 'a
(** Fold over every page id the tree occupies, root included. Used to
    reconstruct allocator state when reopening a device. *)

val verify : t -> unit
(** Full structural check: node sizes within page bounds, minimum-fill
    for non-root nodes, key ordering inside nodes, separator bounds over
    subtrees, uniform leaf depth, and leaf chain consistent with in-order
    traversal. @raise Failure describing the first violation. For tests. *)
