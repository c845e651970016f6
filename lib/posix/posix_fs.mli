(** POSIX compatibility veneer over the native hFAD API.

    "We support POSIX naming as a thin layer atop the native API. A
    naming operation on POSIX path P translates into a lookup on the
    tag/value pair POSIX/P. Note that a POSIX path is simply one name
    among many possible names." (§3.1.1)

    Consequences of that design, all implemented here:

    - Path resolution is {e one} index descent regardless of depth — no
      component-at-a-time walk, no locks through shared ancestors
      (contrast {!Hfad_hierfs}, experiments C1/C2) — and a bounded
      full-path → OID memo ({!Hfad_pathcache.Pathcache}, bench R1)
      makes the warm case one hashed lookup with {e zero} descents.
    - A directory listing is a prefix scan of the POSIX index.
    - Hard links are just additional POSIX names on the same OID.
    - Renaming a directory re-keys every path under it (the classic cost
      of path-keyed namespaces; measured in bench C4).
    - Directories exist as empty marker objects so that [mkdir]/[rmdir]
      semantics and empty directories survive; the data path never
      touches them.

    Mutations return a typed [result] over {!type:error} — the shared
    {!Hfad_util.Errno} vocabulary plus the storage stack's own
    {!Hfad.Fs.error} — with [_exn] companions that raise
    {!exception:Error} for callers that prefer exceptions (scripts,
    benches). Read-side and descriptor calls keep raising: a bad
    descriptor or unresolvable path is a programming error at those
    call sites, not an outcome to branch on.

    Concurrency: the veneer inherits the stack's single-writer /
    multi-reader discipline — every {!Hfad.Fs} call underneath takes the
    appropriate side of the stack-wide {!Hfad_util.Rwlock}, so
    {!resolve}, {!readdir}, {!stat} and descriptor reads run in parallel
    across domains with {e zero} exclusive-side contention (contrast the
    hierarchical baseline's shared-ancestor locks, experiment C2). The
    descriptor table and cursors are guarded by a private mutex.
    {!rename} commits as {e one} transaction ({!Hfad.Fs.with_txn}) when
    the stack allows it — a crash recovers the whole re-key or none of
    it — falling back to a sequence of individually-atomic Fs calls when
    the subtree spans shards or overflows the journal's capacity
    estimate. A new file, directory or symlink is created with its path
    in one mutation, and {!write_file} overwrites in one plan. Other
    multi-step operations ({!mkdir_p}, [create]-on-open) remain
    sequences of atomic Fs calls, as in POSIX itself. *)

type t

type errno = Hfad_util.Errno.t =
  | ENOENT   (** no such file or directory *)
  | EEXIST
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | EBADF
  | EINVAL
  | ELOOP    (** too many levels of symbolic links *)
(** Re-export of the shared {!Hfad_util.Errno} vocabulary, so veneer
    errors pattern-match against the same constructors as
    {!Hfad_hierfs.Hierfs}'s. *)

exception Error of errno * string
(** [(errno, path-or-context)] — raised by the [_exn] mutation variants
    and the read/descriptor calls. *)

type error = Errno of errno * string | Storage of Hfad.Fs.error
(** What a typed mutation can return: a POSIX-semantics refusal
    ([Errno]) or a storage-stack failure bubbling up ([Storage]). *)

val pp_errno : Format.formatter -> errno -> unit
val pp_error : Format.formatter -> error -> unit

val mount : ?pathcache_entries:int -> Hfad.Fs.t -> t
(** Attach the veneer to a file system, creating the root directory
    object on first mount. [pathcache_entries] sizes the full-path →
    OID resolution memo ({!Hfad_pathcache.Pathcache}; default 512,
    0 disables): a warm {!resolve} is then one hashed lookup with no
    index descent, and every mutation invalidates precisely
    (DESIGN.md §11). The cache memoizes the {e pre-symlink} binding of
    each path, so symlink hops stay authoritative. The memo is
    {e per mount}: with several veneers over one [Fs], a hit whose
    object died through a sibling mount fails safe (dropped and
    re-looked-up, surfacing ENOENT), but a sibling's {e rename} of a
    still-live object may be served stale until this mount mutates the
    path — the usual client-cache coherence trade. *)

val unmount : t -> unit
(** Release the resolution cache's pooled metrics prefix (registry
    hygiene for mount/unmount churn). The veneer — not the underlying
    {!Hfad.Fs} — must not be used afterwards. Idempotent. *)

val pathcache_stats : t -> Hfad_pathcache.Pathcache.stats option
(** Resolution-cache counters; [None] when disabled. *)

val fs : t -> Hfad.Fs.t
(** Escape hatch to the native API: "if an application knows exactly
    which data item it needs, it should be able to retrieve it
    directly" (§2). *)

(** {1 Name space} *)

val resolve : ?follow:bool -> t -> string -> Hfad_osd.Oid.t
(** OID behind a path ([follow] symlinks, default true). @raise Error
    ENOENT / ELOOP. *)

val mkdir : t -> string -> (unit, error) result
(** [Errno]: EEXIST / ENOENT (parent) / ENOTDIR (parent). *)

val mkdir_p : t -> string -> (unit, error) result
(** Create missing ancestors; no error if the directory exists. *)

val create_file : ?content:string -> t -> string -> (Hfad_osd.Oid.t, error) result
(** Create a regular file. [Errno]: EEXIST / ENOENT / ENOTDIR. *)

val readdir : t -> string -> string list
(** Names (one component each) inside a directory, sorted.
    @raise Error ENOENT / ENOTDIR. *)

val rename : t -> string -> string -> (unit, error) result
(** Move a file or a whole directory subtree — atomically (one
    transaction) whenever the stack permits, see the module preamble.
    [Errno]: ENOENT, EEXIST (destination), EINVAL (directory into
    itself). *)

val link : t -> string -> string -> (unit, error) result
(** Hard link: one more POSIX name on the same object. [Errno]:
    ENOENT / EEXIST / EISDIR (directories cannot be hard-linked). *)

val symlink : t -> target:string -> string -> (unit, error) result
(** Create a symbolic link object whose content is [target]. *)

val readlink : t -> string -> string
(** @raise Error EINVAL if not a symlink. *)

val unlink : t -> string -> (unit, error) result
(** Remove one POSIX name; the object itself is deleted when its last
    POSIX name goes (link-count semantics). [Errno]: ENOENT / EISDIR. *)

val rmdir : t -> string -> (unit, error) result
(** [Errno]: ENOTEMPTY / ENOTDIR / ENOENT / EINVAL (root). *)

(** {2 Raising variants}

    Same semantics; failure raises {!exception:Error} (or the storage
    stack's own exception for [Storage]-class faults). *)

val mkdir_exn : t -> string -> unit
val mkdir_p_exn : t -> string -> unit
val create_file_exn : ?content:string -> t -> string -> Hfad_osd.Oid.t
val rename_exn : t -> string -> string -> unit
val link_exn : t -> string -> string -> unit
val symlink_exn : t -> target:string -> string -> unit
val unlink_exn : t -> string -> unit
val rmdir_exn : t -> string -> unit

val exists : t -> string -> bool
val is_directory : t -> string -> bool
val stat : t -> string -> Hfad_osd.Meta.t
val nlink : t -> string -> int
(** Number of POSIX names on the object behind the path. *)

(** {1 File I/O}

    Descriptor-based, with an offset cursor, like the POSIX calls. *)

type fd

val openf : ?create:bool -> t -> string -> fd
(** @raise Error ENOENT (unless [create]) / EISDIR. *)

val close : t -> fd -> unit
(** @raise Error EBADF on double close. *)

val read_fd : t -> fd -> int -> string
(** Read up to [n] bytes at the cursor, advancing it. *)

val write_fd : t -> fd -> string -> (unit, error) result
(** Write at the cursor, advancing it. *)

val write_fd_exn : t -> fd -> string -> unit

val seek : t -> fd -> int -> unit
(** Absolute reposition. @raise Error EINVAL on negative offset. *)

val tell : t -> fd -> int

(** {1 Whole-file conveniences} *)

val read_file : t -> string -> string

val write_file : t -> string -> string -> (unit, error) result
(** Create the file with this content, or replace an existing file's
    content in one plan (truncate + write): a reader sees the old bytes
    or the new, never the file between them. Content larger than one
    journal commit is refused ([Storage (Txn_invalid _)]). *)

val write_file_exn : t -> string -> string -> unit

(** {1 Maintenance} *)

val walk : t -> string -> (string * Hfad_osd.Oid.t) list
(** Every path under (and including) a directory, sorted — the
    "find"-style full traversal. *)

val verify : t -> unit
(** Veneer invariants: every POSIX name resolves to a live object, every
    non-root name has a parent directory, directory objects are marked
    [Directory]. @raise Failure on violation. *)
