(** The object-based storage device — Figure 1's OSD box.

    "At its lowest level, hFAD resembles an object-based storage device.
    Storage objects have a unique ID, and higher layers of the system
    access these objects by their ID. Unlike traditional OSDs, our
    objects are fully byte-accessible: not only can you read bytes from
    the object, but you can insert bytes into the middle of objects,
    remove bytes from the middle, etc." (§3)

    Implementation per §3.4: each object is a B-tree keyed by file offset
    whose values are extent descriptors; the NULL key slot holds the
    object's metadata; a master B-tree maps OIDs to object roots; all
    space comes from a buddy allocator. Extents exactly tile
    [\[0, size)] — writing past the end zero-fills the gap.

    [insert] re-keys the extents after the insertion point instead of
    moving data, which is how the B-tree representation "gives us the
    capability to insert and truncate with little implementation effort":
    cost is O(extents · log n), not O(bytes) — experiment C3 measures
    exactly this against the hierarchical baseline's shift-and-rewrite.

    Device layout: block 0 = superblock, block 1 = master tree root,
    blocks 2.. = buddy-managed space.

    Concurrency: the OSD is safe for single-writer / multi-reader use
    across OCaml domains. One {!Hfad_util.Rwlock} (see {!rwlock}) covers
    the whole instance: every read entry point ([read], [metadata],
    [size], [exists], [list_objects], [verify], ...) holds the shared
    side, every mutation ([write], [insert], [remove_bytes],
    [create_object], [delete_object], [flush], ...) the exclusive side,
    and the B-trees underneath nest on the same reentrant lock. Handle
    caches are guarded by their own small mutex so concurrent readers may
    fault in object handles in parallel. Lock acquisitions and waits are
    counted ({!Hfad_util.Rwlock.stats}) — experiment C2 reads them to
    show the flat namespace takes zero exclusive-side waits under
    partitioned reader load. *)

type t

exception No_such_object of Oid.t

exception Txn_rejected of string
(** A transaction plan failed validation before any of it was applied
    (cross-shard plan, doomed op, plan larger than the journal can seal
    atomically). Raised by the file-system layer's transaction executor;
    {!guard} converts it to [Error (Txn_invalid _)]. *)

exception Recovery_failed of Hfad_journal.Journal.reason
(** {!open_existing_exn} found a journal it cannot trust: the region is
    missing/overwritten where the superblock says one exists, or a
    sealed record fails its CRC (media corruption after the seal — a
    double fault a single crash cannot produce). Single-crash states —
    clean journals, unsealed bodies, torn seal writes, sealed batches
    with torn home writes — never raise; they recover. *)

(** {1 Typed errors}

    The storage stack's fallible entry points return
    [('a, error) result] instead of leaking layer-private exceptions
    ([Failure], [Cache_full], [Recovery_failed], ...) through the public
    surface. Every case carries the layer's own diagnosis; [_exn]
    conveniences re-raise the original exceptions for callers migrating
    incrementally. *)

type error =
  | No_such_object of Oid.t  (** the OID is not (or no longer) live *)
  | Cache_full of Hfad_pager.Pager.full_reason
      (** no frame could be evicted; [Dirty_no_steal] calls for a
          checkpoint or a larger cache *)
  | Journal_full of { needed_blocks : int; have_blocks : int }
      (** a commit batch exceeds the journal region *)
  | Recovery of Hfad_journal.Journal.reason
      (** the on-device journal cannot be trusted *)
  | Out_of_space of { requested_blocks : int }
      (** the allocator has no free run large enough *)
  | Io of string  (** the device failed the access (fault, crash, rot) *)
  | Corrupt of string
      (** a structural invariant or on-device codec check failed *)
  | Stopped
      (** the write pipeline stopped before reaching the requested
          durability point *)
  | Txn_invalid of string
      (** a transaction plan was rejected at validation, before any of
          its operations were applied *)

val pp_error : Format.formatter -> error -> unit

val error_message : error -> string
(** One-line rendering of {!pp_error}. *)

val guard : (unit -> 'a) -> ('a, error) result
(** Run a storage operation, converting the stack's exception surface
    ({!No_such_object}, {!Hfad_pager.Pager.Cache_full},
    {!Hfad_journal.Journal.Journal_full}, {!Recovery_failed},
    {!Hfad_alloc.Buddy.Out_of_space}, {!Hfad_blockdev.Device.Io_error},
    [Failure]) into the corresponding {!error}. Programming errors
    ([Invalid_argument], [Assert_failure]) still raise. *)

val raise_error : error -> 'a
(** Re-raise an {!error} as the original exception it was captured from
    — the inverse of {!guard}, used by the [_exn] conveniences. *)

(** {1 Construction}

    All sizing and policy knobs live in one {!Config.t} record instead
    of growing optional-argument sprawl across four signatures; the
    file-system layer above re-exports the same record extended with its
    own knobs. *)

module Config : sig
  type t = {
    cache_pages : int;  (** pager frames (default 1024) *)
    max_extent_pages : int;
        (** bound on a single extent's size (default 64 pages); larger
            writes become chains of extents *)
    journal_pages : int;
        (** [> 0] reserves that many blocks as a write-ahead journal and
            makes {!flush} a crash-consistent checkpoint (NO-STEAL /
            FORCE; default 0) *)
    policy : Hfad_pager.Pager.policy;
        (** pager replacement policy (default [`Twoq], scan-resistant;
            [`Lru] kept for A/B measurement — bench P1) *)
  }

  val default : t

  val v :
    ?cache_pages:int ->
    ?max_extent_pages:int ->
    ?journal_pages:int ->
    ?policy:Hfad_pager.Pager.policy ->
    unit ->
    t
  (** {!default} with the given fields replaced — the one place optional
      arguments remain. *)
end

val format : ?config:Config.t -> Hfad_blockdev.Device.t -> t
(** [format dev] initializes a fresh OSD on [dev], destroying previous
    content. §3.3: "in hFAD, the OSD may be transactional, but this is
    an implementation decision" — [config.journal_pages > 0] is that
    decision. Under NO-STEAL an undersized cache surfaces as
    [Cache_full Dirty_no_steal] from a mutation: the fix is a
    checkpoint or a larger [cache_pages], not a pin hunt.
    @raise Invalid_argument if the device is too small. *)

val open_existing :
  ?config:Config.t -> Hfad_blockdev.Device.t -> (t, error) result
(** Re-attach to a formatted device: runs journal recovery (replaying a
    sealed checkpoint, healing a torn seal), then reads the superblock
    and rebuilds the allocator state by walking the master tree, every
    object tree and every extent. A superblock whose own home write tore
    in the crash is tolerated — recovery replays it before decoding.
    [Error (Corrupt _)] if the superblock is missing or damaged beyond
    what replay can fix; [Error (Recovery _)] on an untrustworthy
    journal. [config.journal_pages] is ignored — the superblock knows. *)

val open_existing_exn : ?config:Config.t -> Hfad_blockdev.Device.t -> t
(** {!open_existing}, re-raising: @raise Failure / @raise
    Recovery_failed. *)

val flush : t -> (unit, error) result
(** Persist the superblock and all dirty pages. On a journaled OSD this
    is an atomic checkpoint: a crash anywhere inside recovers to either
    the previous or the new flush state. The dirty set is sized against
    the journal before anything is written
    ({!Hfad_journal.Journal.would_fit}); a set that outgrows the region
    degrades into several individually-atomic phases instead of raising
    with dirty pages stranded in the cache. *)

val flush_exn : t -> unit
(** {!flush}, re-raising the original device/journal exceptions. *)

val journaled : t -> bool

val note_op : t -> unit
(** Count one logical operation into the next checkpoint's seal
    annotation ({!Hfad_journal.Journal.commit}'s [ops]). The file-system
    layer calls this once per applied mutation, so a transaction's whole
    plan rides the seal with its op count — pure diagnostics, no
    behavioural effect. *)

val journal_sequence : t -> int64
(** Number of checkpoints committed (0 when not journaled). *)

val journal_capacity_pages : t -> int
(** Pages one journal commit can carry (0 when not journaled); a dirty
    set beyond this makes {!flush} split into multiple phases. *)

val device : t -> Hfad_blockdev.Device.t
val pager : t -> Hfad_pager.Pager.t
val allocator : t -> Hfad_alloc.Buddy.t

val rwlock : t -> Hfad_util.Rwlock.t
(** The instance-wide shared/exclusive lock. Exposed so the index stores
    and file-system layer stacked on this OSD join the same discipline,
    and so experiments can read and reset its contention counters. *)

val close : t -> unit
(** Retire this instance's per-pager registry entries and recycle its
    metrics prefix ({!Hfad_pager.Pager.close}). Call when done with the
    OSD so open/close cycles do not leak registry entries. Idempotent;
    does not flush — checkpoint first if durability is wanted. *)

(** {1 Named index trees}

    The index stores above the OSD (Figure 1) keep their B-trees on the
    same device; the OSD records their root pages in its superblock so
    {!open_existing} can find them and re-reserve their pages. Names are
    at most 16 bytes; at most 8 named trees fit the superblock. *)

val create_named_tree : t -> string -> Hfad_btree.Btree.t
(** Allocate a fresh tree and register its root under [name].
    @raise Invalid_argument if the name is taken, too long, or the
    superblock is full. *)

val open_named_tree : t -> string -> Hfad_btree.Btree.t option
(** Handle onto a previously registered tree. *)

val named_tree : t -> string -> Hfad_btree.Btree.t
(** {!open_named_tree} or, when absent, {!create_named_tree}. *)

val named_roots : t -> (string * int) list
(** Registered [(name, root_page)] pairs. *)

(** {1 Object lifecycle} *)

val reserve_oid : t -> Oid.t
(** Claim the next OID without materializing an object — a transaction
    stages its creates up front so later staged operations can reference
    the new identity, then {!create_object} with [?oid] materializes it
    at commit. A reserved OID that is never materialized is simply a
    hole in the OID space (OIDs are never reused anyway). *)

val create_object : ?meta:Meta.t -> ?oid:Oid.t -> t -> Oid.t
(** Allocate a fresh, empty object. [?oid] materializes a previously
    {!reserve_oid}-ed identity instead of claiming a new one.
    @raise Invalid_argument if [oid] was never reserved or is already
    live. *)

val delete_object : t -> Oid.t -> unit
(** Free the object's extents and index pages and forget its OID.
    @raise No_such_object. *)

val exists : t -> Oid.t -> bool
val object_count : t -> int
val list_objects : t -> Oid.t list
(** All live OIDs in increasing order. *)

(** {1 Metadata} *)

val metadata : t -> Oid.t -> Meta.t
(** @raise No_such_object. *)

val size : t -> Oid.t -> int

val update_metadata : t -> Oid.t -> (Meta.t -> Meta.t) -> unit
(** Read-modify-write the metadata record. The size field is owned by the
    OSD: changes to it are ignored. @raise No_such_object. *)

(** {1 Byte access (§3.1.2)}

    All offsets and lengths are in bytes and must be non-negative. *)

val read : t -> Oid.t -> off:int -> len:int -> string
(** Read up to [len] bytes at [off]; short (possibly empty) result at end
    of object, as POSIX [read] behaves. Reads do not update atime
    (noatime semantics); use {!update_metadata} with {!Meta.touch_atime}
    where access-time tracking matters. *)

val read_all : t -> Oid.t -> string
(** The whole object as of one instant: its size and its bytes are read
    in one shared section, so no mutation lands between them. *)

val write : t -> Oid.t -> off:int -> string -> unit
(** Overwrite-in-place/extend, POSIX-compatible (§3.1.2: "The read and
    write calls are compatible with POSIX"). Writing past the end
    zero-fills the gap. *)

val append : t -> Oid.t -> string -> unit

val insert : t -> Oid.t -> off:int -> string -> unit
(** The hFAD extension: "instead of overwriting bytes in the middle of a
    file, it inserts those bytes into the appropriate position, growing
    the file by the number of bytes being inserted." [off] past the end
    behaves like {!write}. *)

val remove_bytes : t -> Oid.t -> off:int -> len:int -> unit
(** The hFAD two-argument truncate: "an offset and length, indicating
    exactly which bytes to remove from the file." Removing past the end
    clamps. *)

val truncate : t -> Oid.t -> int -> unit
(** Set the object's size: shrinking removes the tail, growing
    zero-fills. *)

val compact : t -> Oid.t -> unit
(** Defragment: rewrite the object into the fewest, largest extents the
    allocator permits. Byte-for-byte content is unchanged; long-lived
    objects that accumulated splits from {!insert}/{!remove_bytes} churn
    get their extent count (and with it every subsequent extent-map
    descent) back down. @raise No_such_object. *)

(** {1 Introspection} *)

val extent_count : t -> Oid.t -> int
(** Number of extents backing the object. *)

val verify_object : t -> Oid.t -> unit
(** Checks the object's structural invariants: extents exactly tile
    [\[0, size)], no extent overruns its allocation, every allocation is
    live in the buddy allocator, and the extent B-tree verifies.
    @raise Failure on violation. *)

val verify : t -> unit
(** {!verify_object} on every object, plus master-tree verification. *)
