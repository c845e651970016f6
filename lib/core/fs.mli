(** hFAD — the native API (§3.1).

    "There are two main components to the native hFAD API. The naming
    interfaces map tagged search-terms to objects. The access interfaces
    manipulate an object, once it has been located."

    This module composes the substrates of Figure 1 — block device,
    buddy allocator, pager, B-trees, OSD, index stores — into the file
    system a client programs against:

    {ul
    {- {b Naming}: {!name} / {!unname} attach tag/value pairs; {!lookup}
       resolves a vector of pairs to the conjunction of per-index
       results; {!search} is ranked full-text. There are no directories
       and no canonical name — "a data item may have many names, all
       equally useful and even equally used" (§2.2).}
    {- {b Access}: POSIX-shaped {!read}/{!write} plus the hFAD
       extensions {!insert} and {!remove_bytes} (§3.1.2).}
    {- {b Content indexing}: the full-text index is a view of each
       object's current bytes. A mutation only marks its object; a
       drain reindexes every marked object once, from what it holds
       then (§3.4's lazy indexing). {!drain_index} drains now; the
       write pipeline's daemon drains at each group commit.}}

    {b Durability model.} Mutations update the in-memory stack and
    return; they become durable at a {e durability point} — an explicit
    {!sync}, or automatically once the asynchronous write pipeline is
    running ({!start_pipeline}): a background daemon coalesces
    acknowledged mutations and issues one journaled group commit per
    batch, amortizing the journal's fixed cost over many logical
    operations. {!sync} is the pipeline's fsync: it returns only once
    every previously acknowledged mutation is journaled.
    [Config.sync_writes = true] instead checkpoints after {e every}
    mutation — per-op durability, the baseline bench W1 measures the
    pipeline against.

    {b Errors.} Fallible entry points return [('a, error) result] where
    {!error} is {!Hfad_osd.Osd.error} (re-exported with equality, so the
    constructors interoperate). Each has an [_exn] convenience that
    re-raises the underlying exception; reads raise as before
    ([Osd.No_such_object] etc.), since an absent object on the read path
    is usually a program logic bug, not an environmental failure.

    The POSIX compatibility veneer (module {!Hfad_posix.Posix_fs}) is a
    thin client of this API, exactly as the paper prescribes: "a POSIX
    path is simply one name among many possible names."

    Concurrency: each shard's stack is single-writer / multi-reader
    across OCaml domains. One reentrant {!Hfad_util.Rwlock} per shard is
    shared by that shard's index stores and OSD: {!lookup}, {!query},
    {!search}, {!read}, {!list_names} and the other read entry points
    hold the shared side; every mutation holds the exclusive side. Each
    shard's pipeline daemon is one more writer on that shard's lock — its
    group commit takes the exclusive side, so readers race it safely.
    §2.3's contrast is exactly here — resolution through this flat
    namespace contends only when someone is {e writing}, never because
    two readers share an ancestor directory; experiment C2 measures the
    difference with the lock's contention counters.

    {b Sharding (scale-out).} [Config.shards = N > 1] partitions the
    flat OID space over N fully independent shard stacks — each its own
    device window, pager, journal, locks and flusher daemon — behind a
    tag-aware router ({!Hfad_shard.Router}). A global OID encodes its
    shard arithmetically ([global = local * N + shard]), so placement is
    stateless and crash-stable. Single-object operations route to the
    owning shard; naming queries route to one shard when an [Id] pair
    pins them and scatter-gather otherwise (results are pure merges —
    objects live on exactly one shard). New objects place by hashing the
    {!Config.placement_tag} value when present (tenant affinity; a hint,
    never a correctness assumption), else round-robin. {!sync} is
    global: it returns only when {e every} shard is durable. With
    [shards = 1] (the default) the router vanishes and the on-disk image
    is byte-identical to the unsharded format; {!open_existing}
    auto-detects which kind of image it was handed, ignoring
    [config.shards]. Per-shard health is published under a pooled
    [fs<k>.shard<i>.*] metrics prefix (see {!metrics_prefix}); routing
    spans ([shard.route]) and router counters ([fs<k>.router.targeted] /
    [.scatter]) exist only on sharded stacks, so the unsharded trace and
    metrics profile is unchanged. *)

type t

type index_mode =
  | Eager
      (** every mutation drains its shard's marks before it returns, so
          content is searchable the instant it returns — also after a
          transaction rolls back *)
  | Lazy
      (** content is stale until the next drain or group commit
          (default; §3.4) *)
  | Off    (** content never indexed (naming by attributes/ID only) *)

(** {1 Errors} *)

type error = Hfad_osd.Osd.error =
  | No_such_object of Hfad_osd.Oid.t
  | Cache_full of Hfad_pager.Pager.full_reason
  | Journal_full of { needed_blocks : int; have_blocks : int }
  | Recovery of Hfad_journal.Journal.reason
  | Out_of_space of { requested_blocks : int }
  | Io of string
  | Corrupt of string
  | Stopped
  | Txn_invalid of string
      (** a transaction plan was rejected before any of it was applied;
          see {!Hfad_osd.Osd.error} for the other cases' meaning *)

val pp_error : Format.formatter -> error -> unit
val error_message : error -> string

(** {1 The typed mutation vocabulary}

    {b Every mutation is a plan}, committed by one function: the
    single-op calls below ({!create}, {!write}, {!name}, ...) commit a
    one-op plan, {!with_txn} stages many, and the wire server's verbs
    stage theirs through {!with_txn}. All OIDs are global; the commit
    translates to the owning shard. Only {!compact}, which changes no
    logical state, is no plan.

    A one-op plan is neither pre-validated nor captured for undo (see
    {!with_txn} for longer plans): its op runs its own checks before it
    changes anything, and nothing before it needs unwinding. So a
    single op reads nothing extra, and its errors are its own —
    [No_such_object] with the global OID, [Invalid_argument], the
    index's exceptions for a bad name — not [Txn_invalid]. Every plan,
    one op included, must fit one journal commit: on a journaled stack
    a larger one is refused as [Error (Txn_invalid _)] with nothing
    applied. *)

module Op : sig
  type t =
    | Create of {
        reserved : Hfad_osd.Oid.t;
            (** a pre-reserved identity (see {!Txn.create}) so later ops
                in the same plan can reference the new object *)
        meta : Hfad_osd.Meta.t option;
        names : (Hfad_index.Tag.t * string) list;
        content : string;
      }
    | Write of { oid : Hfad_osd.Oid.t; off : int; data : string }
    | Append of { oid : Hfad_osd.Oid.t; data : string }
    | Truncate of { oid : Hfad_osd.Oid.t; size : int }
    | Delete of { oid : Hfad_osd.Oid.t }
    | Name of { oid : Hfad_osd.Oid.t; tag : Hfad_index.Tag.t; value : string }
    | Unname of { oid : Hfad_osd.Oid.t; tag : Hfad_index.Tag.t; value : string }
    | Rename of {
        oid : Hfad_osd.Oid.t;
        tag : Hfad_index.Tag.t;
        from_ : string;
        to_ : string;
      }  (** atomically retag: remove [tag/from_], add [tag/to_] *)
    | Insert of { oid : Hfad_osd.Oid.t; off : int; data : string }
        (** §3.1.2's insert: grow the object by [data] at [off] *)
    | Remove_bytes of { oid : Hfad_osd.Oid.t; off : int; len : int }
        (** §3.1.2's two-argument truncate: cut [len] bytes at [off],
            clamped at the end *)

  val target : t -> Hfad_osd.Oid.t
  (** The object the op routes by (for [Create], the reserved OID). *)
end

(** {1 Configuration} *)

module Config : sig
  type t = {
    cache_pages : int;  (** pager frames (default 1024) *)
    max_extent_pages : int;  (** single-extent size bound (default 64) *)
    journal_pages : int;
        (** write-ahead journal blocks; 0 = unjournaled (default 0) *)
    policy : Hfad_pager.Pager.policy;  (** page replacement (default [`Twoq]) *)
    index_mode : index_mode;  (** content indexing (default [Lazy]) *)
    batch_max_pages : int;
        (** pipeline size trigger: group-commit once this many pages are
            dirty (default 256) *)
    batch_max_age : float;
        (** pipeline age trigger, seconds: an acknowledged mutation
            waits at most this long for its commit (default 0.010). It
            is a deadline, not a poll period: the daemon sleeps until
            it, or until a barrier or the size trigger wakes it. *)
    sync_writes : bool;
        (** checkpoint after every mutation — per-op durability instead
            of group commit (default [false]) *)
    shards : int;
        (** independent OSD shards behind the router (default 1;
            {!format} only — {!open_existing} reads the image's shard
            map) *)
    placement_tag : Hfad_index.Tag.t option;
        (** hash this tag's value (when a {!create} supplies one) to
            place new objects — tenant affinity (default
            [Some Tag.User]); [None] = always round-robin *)
  }

  val default : t

  val v :
    ?cache_pages:int ->
    ?max_extent_pages:int ->
    ?journal_pages:int ->
    ?policy:Hfad_pager.Pager.policy ->
    ?index_mode:index_mode ->
    ?batch_max_pages:int ->
    ?batch_max_age:float ->
    ?sync_writes:bool ->
    ?shards:int ->
    ?placement_tag:Hfad_index.Tag.t option ->
    unit ->
    t
  (** {!default} with the given fields replaced. *)

  val osd : t -> Hfad_osd.Osd.Config.t
  (** The OSD-layer projection of this configuration. *)
end

val format : ?config:Config.t -> Hfad_blockdev.Device.t -> t
(** Make a fresh file system on a device. [config.journal_pages > 0]
    makes every durability point a crash-consistent checkpoint backed by
    a write-ahead journal of that many blocks (see
    {!Hfad_osd.Osd.format}). [config.shards > 1] writes a shard-map
    block at physical block 0 and formats that many equal device
    windows, each a complete independent stack (each shard gets its own
    [journal_pages]-block journal); [shards = 1] produces the unsharded
    seed format, byte for byte.
    @raise Invalid_argument if the device is too small. *)

val open_existing :
  ?config:Config.t -> Hfad_blockdev.Device.t -> (t, error) result
(** Re-attach to a formatted device, running journal recovery first
    (per shard, when the image is sharded). [config.journal_pages] and
    [config.shards] are ignored — the superblock and shard map know. *)

val open_existing_exn : ?config:Config.t -> Hfad_blockdev.Device.t -> t

val close : t -> unit
(** Stop the pipeline (final group commit of everything acknowledged),
    release each shard's pooled metrics prefix, and — on a sharded stack
    — the [fs<k>] prefix, purging the per-instance counter families from
    the global registry. Open/close cycles therefore do not leak
    registry entries. Idempotent. *)

val config : t -> Config.t
(** The effective configuration; [shards] reflects the opened image. *)

val journaled : t -> bool

val device : t -> Hfad_blockdev.Device.t
(** The parent (whole) device, whatever the shard count. *)

val osd : t -> Hfad_osd.Osd.t
(** Shard 0's OSD — the whole stack when unsharded. Kept for the
    repository benchmark's counters ([perfbench/]), which read it; any
    other caller names the shard with {!osd_of_shard}. Index stores are
    reached per shard only ({!index_of_shard}); names go through the
    naming interfaces. *)

val index_mode : t -> index_mode

val rwlock : t -> Hfad_util.Rwlock.t
(** Shard 0's stack-wide shared/exclusive lock (the OSD's); read its
    {!Hfad_util.Rwlock.stats} to see this instance's lock footprint.
    Kept, like {!osd}, for the repository benchmark, which reads it. *)

(** {1 Shards}

    Observability into the sharded topology. On an unsharded stack
    [shard_count = 1] and every accessor below degenerates to the
    whole-stack object. *)

val shard_count : t -> int

val shard_of_oid : t -> Hfad_osd.Oid.t -> int
(** Owning shard of a global OID (arithmetic, stable across restarts). *)

val osd_of_shard : t -> int -> Hfad_osd.Osd.t
(** Shard [i]'s OSD. Its object space is {e local} OIDs. *)

val index_of_shard : t -> int -> Hfad_index.Index_store.t
(** Shard [i]'s index store (local OIDs). *)

val shard_pipeline_stats : t -> int -> Flusher.stats option
(** Shard [i]'s own pipeline counters ([None] before any
    {!start_pipeline}). *)

val metrics_prefix : t -> string option
(** The pooled [fs<k>] prefix under which per-shard counter families
    ([fs<k>.shard<i>.ops] / [.acked] / [.durable] / [.commits]) and
    router counters ([fs<k>.router.targeted] / [.scatter]) are
    registered — [None] on an unsharded stack, which publishes no
    per-shard families at all. *)

(** {1 Durability: sync and the write pipeline} *)

val sync : ?mode:[ `Barrier | `Checkpoint ] -> t -> (unit, error) result
(** The one durability entry point.

    [`Barrier] (the default) is fsync semantics: returns [Ok ()] only
    once every mutation acknowledged before this call is durable {e on
    every shard}. With the pipeline running this hands each shard's
    batch to its daemon and blocks for the commits; otherwise it
    degenerates to [`Checkpoint]. [Error] carries the first failing
    shard's commit error (sticky while that pipeline is up — a failed
    daemon fails every subsequent barrier until {!start_pipeline}); the
    remaining shards are still barriered.

    [`Checkpoint] checkpoints synchronously and unconditionally: drain
    the content index, then journal-commit the dirty set and
    write it home ({!Hfad_osd.Osd.flush}) — in the caller's thread even
    while the pipeline is up (commits serialize on the stack lock). *)

val sync_exn : ?mode:[ `Barrier | `Checkpoint ] -> t -> unit

val start_pipeline : t -> unit
(** Start the asynchronous group-commit daemon. From here until
    {!stop_pipeline}, mutations are acknowledged into an in-memory batch
    and made durable in the background — when the dirty set reaches
    [batch_max_pages], when the oldest acknowledged mutation is
    [batch_max_age] old, or at a {!sync}, whichever is first. Each
    group commit also drains the content index, so this daemon is the
    background thread that indexes lazily. No-op if already running or if
    [config.sync_writes] is set (the two modes are exclusive). *)

val stop_pipeline : t -> unit
(** Drain the pipeline (final group commit of everything acknowledged)
    and join the daemon. No-op if not running. *)

val pipeline_running : t -> bool
(** Whether any shard's daemon is running. *)

val pipeline_stats : t -> Flusher.stats option
(** Counters summed over every shard's pipeline; [None] when no
    pipeline was ever started (see {!shard_pipeline_stats} for one
    shard's). *)

(** {1 Object lifecycle} *)

val create :
  ?meta:Hfad_osd.Meta.t ->
  ?names:(Hfad_index.Tag.t * string) list ->
  ?content:string ->
  t ->
  (Hfad_osd.Oid.t, error) result
(** Create an object, optionally with initial names and content, in
    one mutation: a name the index refuses raises before it exists. *)

val create_exn :
  ?meta:Hfad_osd.Meta.t ->
  ?names:(Hfad_index.Tag.t * string) list ->
  ?content:string ->
  t ->
  Hfad_osd.Oid.t

val delete : t -> Hfad_osd.Oid.t -> (unit, error) result
(** Remove the object and every index entry that names it. *)

val delete_exn : t -> Hfad_osd.Oid.t -> unit
val exists : t -> Hfad_osd.Oid.t -> bool
val object_count : t -> int

val objects : t -> Hfad_osd.Oid.t list
(** Every live object on every shard, as global OIDs in ascending
    order. *)

(** {1 Naming interfaces (§3.1.1)} *)

val name : t -> Hfad_osd.Oid.t -> Hfad_index.Tag.t -> string -> (unit, error) result
(** Attach one more name. @raise Hfad_index.Index_store.Unsupported_tag
    for [Id]/[Fulltext] (identity is intrinsic; content names come from
    the object's bytes) — misuse, not an {!error}. *)

val name_exn : t -> Hfad_osd.Oid.t -> Hfad_index.Tag.t -> string -> unit
val unname : t -> Hfad_osd.Oid.t -> Hfad_index.Tag.t -> string -> (bool, error) result
(** Detach one name; returns whether it was attached. A pair {!name}
    would refuse raises the same exception. *)

val unname_exn : t -> Hfad_osd.Oid.t -> Hfad_index.Tag.t -> string -> bool

val rename :
  t ->
  Hfad_osd.Oid.t ->
  Hfad_index.Tag.t ->
  from_:string ->
  to_:string ->
  (bool, error) result
(** Atomically replace one name with another under the same tag — one
    mutation, one sequence number, so no reader or snapshot ever sees
    the object with neither (or both) names. Returns whether [from_]
    was actually attached. A [to_] the index refuses raises before
    [from_] is removed. *)

val rename_exn :
  t -> Hfad_osd.Oid.t -> Hfad_index.Tag.t -> from_:string -> to_:string -> bool

val names_of : t -> Hfad_osd.Oid.t -> (Hfad_index.Tag.t * string) list
(** Every attribute name the object carries. *)

val lookup : t -> (Hfad_index.Tag.t * string) list -> Hfad_osd.Oid.t list
(** The naming operation: conjunction over tag/value pairs. "Naming
    operations can return multiple items... no query need uniquely
    define a data item." Results in ascending OID order. *)

val lookup_one : t -> (Hfad_index.Tag.t * string) list -> Hfad_osd.Oid.t option
(** First result, if any. *)

val query : t -> Hfad_index.Query.t -> Hfad_osd.Oid.t list
(** Arbitrary boolean naming query (§4's extension): and/or/not over
    tag/value pairs, planned by selectivity.
    @raise Hfad_index.Query.Unbounded_not for un-guarded negations. *)

val explain : t -> Hfad_index.Query.t -> (int * string) list
(** The plans {!query} runs, one per shard it visits, in shard order:
    each shard's {!Hfad_index.Query.explain} of the query as rewritten
    for that shard. A query with a positive [ID] conjunct visits only
    the owning shard, with the shard-local id. *)

val query_string : t -> string -> Hfad_osd.Oid.t list
(** {!query} on the concrete syntax, e.g.
    ["USER/margo & (UDEF/beach | UDEF/hawaii) & !APP/trash"].
    @raise Hfad_index.Query.Parse_error. *)

val search : t -> string -> (Hfad_osd.Oid.t * float) list
(** Ranked full-text search over object content (query text is
    tokenized; terms are conjoined). *)

val list_names : t -> Hfad_index.Tag.t -> prefix:string -> (string * Hfad_osd.Oid.t) list
(** All (value, oid) names under a tag with a value prefix — the
    primitive behind POSIX directory listing. *)

(** {1 Transactions}

    A transaction stages a typed {!Op.t} plan, then commits it as one
    atomic unit on the owning shard: under the stack's NO-STEAL/FORCE
    journaling nothing reaches the device until a checkpoint, and a
    checkpoint seals the whole dirty set as a single CRC-chained journal
    commit — so a crash recovers the plan wholly applied or wholly
    absent. A plan of two or more ops is validated before anything is
    applied; a failure mid-plan, even part-way through one op, unwinds
    every op applied with logical undos (no checkpoint can intervene —
    the commit holds the shard's exclusive lock).

    Restrictions: a plan must stay on one shard (the first staged op
    pins it; a cross-shard op raises, surfacing as
    [Error (Txn_invalid _)]), and its estimated dirty set must fit one
    journal commit. Durability follows the configured policy — the plan
    joins the pipeline batch as a unit, or checkpoints once under
    [sync_writes]. *)

type txn
(** A transaction in its staging phase. Staging performs {e no} I/O
    (except OID reservation in {!Txn.create}); reads inside the callback
    see the pre-transaction state. *)

module Txn : sig
  val stage : txn -> Op.t -> unit
  (** Append one op to the plan. Raises (→ [Error (Txn_invalid _)])
      if the op's shard differs from the plan's. *)

  val ops : txn -> Op.t list
  (** The plan staged so far, in staging order. *)

  val create :
    ?meta:Hfad_osd.Meta.t ->
    ?names:(Hfad_index.Tag.t * string) list ->
    ?content:string ->
    txn ->
    Hfad_osd.Oid.t
  (** Reserve a fresh OID now, stage its materialization: the returned
      OID is valid {e within the plan} (later staged ops may target it)
      and becomes live at commit. If the transaction aborts, the
      reserved OID is simply never used. *)

  val write : txn -> Hfad_osd.Oid.t -> off:int -> string -> unit
  val append : txn -> Hfad_osd.Oid.t -> string -> unit
  val truncate : txn -> Hfad_osd.Oid.t -> int -> unit
  val delete : txn -> Hfad_osd.Oid.t -> unit
  val name : txn -> Hfad_osd.Oid.t -> Hfad_index.Tag.t -> string -> unit
  val unname : txn -> Hfad_osd.Oid.t -> Hfad_index.Tag.t -> string -> unit

  val rename :
    txn -> Hfad_osd.Oid.t -> Hfad_index.Tag.t -> from_:string -> to_:string -> unit
end

val with_txn : t -> (txn -> 'a) -> ('a, error) result
(** Run [f] with a fresh transaction, then commit its staged plan
    atomically. An empty plan commits as a no-op. Any exception [f]
    raises aborts the transaction with nothing applied (storage
    exceptions return as [Error]; others propagate). A rejected plan is
    [Error (Txn_invalid _)]. *)

val with_txn_exn : t -> (txn -> 'a) -> 'a

(** {1 Snapshots}

    Cheap copy-on-write read isolation: {!snapshot} pins the current
    mutation sequence number, and every later mutation saves the
    affected object's preimage (content, metadata, names) before
    changing it — only while a snapshot that needs it is live. Long
    scans and searches therefore read a frozen point in time without
    blocking the write pipeline for even a moment. Snapshots cost
    nothing until a mutation actually touches an object ({e then} one
    object-copy per first touch), and all saved state is dropped when
    the last snapshot needing it is released. A snapshot pins at some
    instant within the {!snapshot} call; mutations concurrent with the
    call itself may land on either side of the pin. *)

module Snapshot : sig
  type snap

  val seq : snap -> int
  (** The pinned mutation sequence number. *)

  val exists : snap -> Hfad_osd.Oid.t -> bool

  val read : snap -> Hfad_osd.Oid.t -> off:int -> len:int -> string
  (** POSIX-read semantics at the pinned time.
      @raise Hfad_osd.Osd.No_such_object if the object did not exist
      then. *)

  val read_all : snap -> Hfad_osd.Oid.t -> string
  val size : snap -> Hfad_osd.Oid.t -> int
  val metadata : snap -> Hfad_osd.Oid.t -> Hfad_osd.Meta.t
  val names_of : snap -> Hfad_osd.Oid.t -> (Hfad_index.Tag.t * string) list

  val release : snap -> unit
  (** Drop the pin and garbage-collect every preimage no remaining
      snapshot can ask for. Reading a released snapshot raises
      [Invalid_argument]. Idempotent. *)
end

val snapshot : t -> Snapshot.snap
(** Pin a snapshot; pair with {!Snapshot.release} (or use
    {!with_snapshot}). *)

val with_snapshot : t -> (Snapshot.snap -> 'a) -> 'a
(** {!snapshot} / {!Snapshot.release} around [f], release guaranteed. *)

(** {1 Access interfaces (§3.1.2)}

    Reads raise ({!Hfad_osd.Osd.No_such_object}); mutations return
    [result] with [_exn] conveniences, and each acknowledged mutation
    joins the current pipeline batch (or checkpoints inline under
    [sync_writes]). *)

val read : t -> Hfad_osd.Oid.t -> off:int -> len:int -> string
val read_all : t -> Hfad_osd.Oid.t -> string
val write : t -> Hfad_osd.Oid.t -> off:int -> string -> (unit, error) result
val write_exn : t -> Hfad_osd.Oid.t -> off:int -> string -> unit
val append : t -> Hfad_osd.Oid.t -> string -> (unit, error) result
val append_exn : t -> Hfad_osd.Oid.t -> string -> unit
val insert : t -> Hfad_osd.Oid.t -> off:int -> string -> (unit, error) result
val insert_exn : t -> Hfad_osd.Oid.t -> off:int -> string -> unit

val remove_bytes :
  t -> Hfad_osd.Oid.t -> off:int -> len:int -> (unit, error) result

val remove_bytes_exn : t -> Hfad_osd.Oid.t -> off:int -> len:int -> unit
val truncate : t -> Hfad_osd.Oid.t -> int -> (unit, error) result
val truncate_exn : t -> Hfad_osd.Oid.t -> int -> unit
val size : t -> Hfad_osd.Oid.t -> int
val metadata : t -> Hfad_osd.Oid.t -> Hfad_osd.Meta.t
(** Set at {!create}; only writes change it after ([size], [mtime]).
    The native API has no call that rewrites metadata. *)

val compact : t -> Hfad_osd.Oid.t -> (unit, error) result
(** Rewrite the object into the fewest extents its size allows
    (routed to the owning shard; see {!Hfad_osd.Osd.compact}). A
    maintenance call, not an {!Op.t}: it changes no logical state. *)

val compact_exn : t -> Hfad_osd.Oid.t -> unit

val extent_count : t -> Hfad_osd.Oid.t -> int
(** Extents backing the object, on whichever shard owns it. *)

(** {1 Content indexing} *)

val drain_index : t -> unit
(** Reindex every marked object now, on every shard, from its current
    bytes. *)

val index_backlog : t -> int
(** Objects marked and not yet reindexed (staleness, measured by
    experiment C6). k mutations of one object count once. *)

val verify : t -> unit
(** Full-system structural check (OSD + every index).
    @raise Failure on violation. *)
