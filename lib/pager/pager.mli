(** Page cache between the indexes and the block device.

    One pager page = one device block. Every index structure in the
    system (directory B-trees, extent B-trees, OID master tree, string
    indexes, postings) reads its pages through a pager, which makes this
    module the single choke point where the paper's "multiple indexes
    place pressure on the processor caches" (§2.3) becomes measurable:
    cache hits, misses, write-backs and evictions are counted here.

    Access discipline: pages are only visible inside [with_page] /
    [with_page_mut] callbacks, during which the page is pinned (immune to
    eviction). Callbacks must not retain the buffer. Nested access to
    distinct pages is fine; nested access to the same page is fine
    (pins count).

    Replacement: two policies, both O(1) per operation over intrusive
    doubly-linked queues (no scan of the frame table on the eviction
    path).

    {ul
    {- [`Lru]: one recency queue; hits splice to the head, eviction takes
       the tail. A single sequential scan wider than the cache replaces
       everything — kept for A/B measurement (bench P1).}
    {- [`Twoq]} (default): scan-resistant 2Q (Johnson & Shasha, VLDB '94).
       First-touch pages enter a probationary FIFO [A1in]; evicted
       probationers leave a data-less {e ghost} entry in [A1out]; a miss
       that hits a ghost ("this page came back") loads straight into the
       protected LRU queue [Am]. Hits inside [A1in] do not reorder it, so
       one pass over a large corpus streams through [A1in] and can never
       displace the hot index nodes resident in [Am].}}

    Eviction honours pins and NO-STEAL by walking past ineligible frames
    from the LRU end — O(1) in the common case, never a fold over all
    frames.

    Thread safety: the frame table (residency, pins, queues, dirty
    flags) is guarded by a mutex, stats are atomic, and contention on the
    frame-table mutex is itself counted ([lock_acquisitions] /
    [lock_waits]) so the pager's lock footprint is comparable with the
    namespace locks measured in experiment C2. Concurrent [with_page] of
    the same page from several domains is safe; what the pager does {e
    not} arbitrate is simultaneous reader/writer access to one page's
    {e bytes} — that exclusion comes from the layer above
    ({!Hfad_util.Rwlock}: B-tree/OSD readers take the shared side while
    mutators take the exclusive side). *)

type t

type full_reason =
  | All_pinned
      (** Every frame is pinned: the cache is smaller than the pin
          working set, or a pin leaked. *)
  | Dirty_no_steal
      (** At least one frame is unpinned but every unpinned frame is
          dirty under NO-STEAL: the dirty set outgrew the cache between
          checkpoints. The remedy is a flush (journal checkpoint) or a
          larger cache — not a bug in the caller's pin discipline. *)

exception Cache_full of full_reason
(** Raised when a new page is needed and no frame may be evicted; the
    payload says which invariant blocked eviction so callers (the OSD in
    particular) can react: [Dirty_no_steal] calls for a checkpoint,
    [All_pinned] is a sizing/leak bug. *)

type policy = [ `Lru | `Twoq ]

val create :
  ?cache_pages:int ->
  ?no_steal:bool ->
  ?policy:policy ->
  ?kin:int ->
  ?kout:int ->
  Hfad_blockdev.Device.t ->
  t
(** [create dev] wraps [dev] with a cache of [cache_pages] frames
    (default 1024). With [no_steal:true], dirty frames are never evicted
    (they reach the device only through {!flush}) — the policy the
    write-ahead journal requires for crash consistency; the cache must
    then be large enough to hold the dirty working set between flushes.

    [policy] selects the replacement policy (default [`Twoq]). [kin]
    (default [cache_pages / 4]) is the probationary-queue target: pages
    seen once occupy at most this many frames before becoming eviction
    candidates. [kout] (default [cache_pages / 2]) is the ghost-history
    length: how many recently evicted probationary pages are remembered
    so that their return can be recognised and rewarded with protected
    residency. Both are clamped to at least 1 (kout: 0 allowed, which
    disables ghosts and degrades 2Q to FIFO+LRU).
    @raise Invalid_argument if [cache_pages <= 0]. *)

val page_size : t -> int
val pages : t -> int
(** Total pages on the underlying device. *)

val device : t -> Hfad_blockdev.Device.t

val policy : t -> policy

val with_page : t -> int -> (Bytes.t -> 'a) -> 'a
(** [with_page t n f] runs [f] on the contents of page [n] (read-only by
    convention; mutations will be lost unless the page is already dirty). *)

val with_page_mut : t -> int -> (Bytes.t -> 'a) -> 'a
(** Like {!with_page} but marks the page dirty; it will reach the device
    on eviction or {!flush}. *)

val with_page_update : t -> int -> (Bytes.t -> 'a * bool) -> 'a
(** Like {!with_page_mut}, but [f] says whether it wrote the page: the
    page is marked dirty only when [f] returns [(_, true)] or raises.
    A batch that finds nothing to change leaves the page clean. *)

val zero_page : t -> int -> unit
(** [zero_page t n] resets page [n] to zeroes (marks dirty) without
    reading it from the device first — used when allocating fresh
    pages. *)

(** {1 Dirty frames}

    The pager keeps a table of its dirty frames, updated wherever a
    frame's dirty bit flips. {!dirty_pages}, {!flush}, {!flush_pages}
    and {!dirty_count} visit only that table, never the whole frame
    table. *)

val flush : t -> unit
(** Write back all dirty pages, in ascending page order, and issue a
    device barrier. *)

val flush_pages : t -> int list -> unit
(** Write back exactly the listed pages (skipping non-resident or clean
    ones) and barrier — the selective write-back a phase-split journaled
    checkpoint needs when the whole dirty set exceeds journal capacity. *)

val dirty_pages : t -> (int * Bytes.t) list
(** Every dirty page, ascending page order — what a checkpoint must make
    durable. The buffers are the frames themselves, not copies: the
    caller must write them out before anything can change them.
    [Osd.flush_body] journals them in place, which is safe because:
    - it holds the OSD's exclusive side for the whole checkpoint, the
      phase-split case included;
    - every page mutation holds that side;
    - NO-STEAL never evicts a dirty frame, so a frame keeps its page
      until the checkpoint writes it back;
    - [Device.write_block] copies what it is given.

    A checkpoint that ran its I/O outside the exclusive side would have
    to copy at least the frames dirtied during that I/O first. *)

val dirty_count : t -> int
(** Number of resident dirty frames: the size of the dirty table (no
    scan) — the write pipeline's batch-size trigger polls this on every
    mutation, so it must stay O(1). *)

val invalidate : t -> unit
(** Drop every unpinned frame (dirty frames are written back first) and
    forget the ghost history. Mainly for tests that want cold-cache
    behaviour. *)

(** {1 Statistics} *)

type stats = {
  reads : int;        (** page accesses through the cache *)
  hits : int;
  misses : int;
  write_backs : int;  (** dirty pages pushed to the device *)
  evictions : int;    (** frames reclaimed to make room *)
  ghost_hits : int;
      (** misses that found their page in the ghost history and were
          promoted straight into the protected queue (2Q only) *)
  lock_acquisitions : int;  (** frame-table mutex acquisitions *)
  lock_waits : int;
      (** acquisitions that found the mutex held by another thread *)
}

type occupancy = { a1in : int; a1out : int; am : int }
(** Instantaneous queue lengths: probationary frames, ghost entries,
    protected frames. Under [`Lru] every resident frame counts as [am]. *)

val stats : t -> stats
val reset_stats : t -> unit
val occupancy : t -> occupancy

val scan_resistance : t -> float
(** Fraction of evictions taken from the probationary queue — i.e. pages
    that were evicted without ever displacing protected residents. 1.0
    under pure scan traffic means perfect protection of [Am]; [`Lru]
    reports 0.0 once anything has been evicted (and 1.0 before). *)

val metrics_prefix : t -> string
(** Every pager registers its own gauges/counters in
    {!Hfad_metrics.Registry.global} under a unique prefix (e.g.
    ["pager3"]): [<prefix>.evictions], [<prefix>.ghost_hits],
    [<prefix>.a1in], [<prefix>.a1out], [<prefix>.am],
    [<prefix>.scan_resistance_pct]. Prefixes are pool-allocated
    ({!Hfad_metrics.Prefix_pool}): unique among live pagers, recycled by
    {!close}. *)

val close : t -> unit
(** Retire this pager's registry entries and return its metrics prefix
    to the pool. Call when the owning stack is done with the pager —
    open/close cycles then neither leak registry entries nor collide on
    prefixes. Idempotent; the pager's frames remain usable, only its
    metrics identity is released. *)

val pp_stats : Format.formatter -> stats -> unit
