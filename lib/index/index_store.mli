(** The index-store layer — Figure 1's "Index Stores" box.

    "Given one or more type/value specifications, the collection of index
    stores must return a list of object IDs matching the search terms"
    (§3.2). The store is a registry dispatching each {!Tag.t} to the
    appropriate index implementation:

    - [Posix], [User], [Udef], [App], [Custom _] → {!Kv_index} slices of
      one shared attribute B-tree, one namespace per tag. An image hash
      ({!Image_index}) is one of these names, under [Custom "IMAGE"];
    - [Fulltext] → the {!Hfad_fulltext.Fulltext} inverted index, a view
      of the objects' current bytes: mutations {!mark_dirty} an object
      and a {!drain} reindexes it (lazily, per §3.4);
    - [Id] → no index at all: the value {e is} the OID (Table 1's
      fast path).

    The slice registry is read from the tree: {!create} registers every
    namespace the attribute tree holds ({!Kv_index.namespaces}), and a
    tag used later adds its own. So {!values_of}, {!drop_object} and
    {!verify}, which visit the registry, see every name after a reopen.

    Conjunctive queries intersect per-pair results cheapest-first, using
    each index's selectivity estimate — the tag-based query-processing
    idea the paper imports from the authors' provenance work [3].

    Both backing B-trees are registered as OSD named trees, so the whole
    index state lives on the same simulated device as the objects and
    survives {!Hfad_osd.Osd.open_existing}.

    Concurrency: the store joins the single-writer / multi-reader
    discipline of the OSD it is created on — the same reentrant
    {!Hfad_util.Rwlock} ({!Hfad_osd.Osd.rwlock}) guards both layers.
    {!lookup}, {!query}, {!selectivity}, {!contains}, {!lookup_prefix},
    {!values_of}, {!backlog} and {!verify} hold the shared side; {!add},
    {!remove}, {!drop_object}, {!mark_dirty} and {!drain} hold the
    exclusive side, so the dirty set needs no lock of its own. The
    per-tag slice registry is guarded by a private mutex, released when
    its section raises. *)

type t

val create : Hfad_osd.Osd.t -> t
(** Open (or bootstrap) the index stores of an OSD, registering every
    namespace of its attribute tree (one B-tree seek each). *)

exception Unsupported_tag of Tag.t
(** Raised when a tag cannot back the requested operation (e.g. [add]
    with [Id] or [Fulltext]). *)

(** {1 Attribute tagging} *)

val add : t -> Hfad_osd.Oid.t -> Tag.t -> string -> unit
(** Associate a tag/value pair with an object. [Fulltext] and [Id] are
    not assignable ({!Unsupported_tag}): content terms come from the
    object's bytes ({!drain}), identity from the OSD.
    @raise Kv_index.Value_not_indexable for malformed values. *)

val check : t -> Tag.t -> string -> unit
(** Raise what {!add} would raise for this pair ({!Unsupported_tag},
    {!Kv_index.Value_not_indexable}, or [Invalid_argument] for a tag
    whose name {!Kv_index.create} refuses); change nothing. *)

val remove : t -> Hfad_osd.Oid.t -> Tag.t -> string -> bool

val values_of : t -> Hfad_osd.Oid.t -> (Tag.t * string) list
(** Every attribute pair carried by the object (content terms not
    included), sorted. *)

(** {1 Content indexing} *)

val mark_dirty : t -> Hfad_osd.Oid.t -> unit
(** Note that the object's content changed. Reads nothing; marking an
    object k times before a drain costs one reindex. *)

val backlog : t -> int
(** Marked objects not yet drained (staleness, measured by experiment
    C6). *)

val drain : ?max_items:int -> t -> int
(** Reindex up to [max_items] marked objects (default: all), in
    ascending OID order, from their current bytes: a [Regular] object is
    indexed, and a deleted object, directory or symlink has its postings
    removed. Returns how many were reindexed. *)

val fulltext : t -> Hfad_fulltext.Fulltext.t

(** {1 Naming operations (§3.1.1)} *)

val lookup : t -> Tag.t * string -> Hfad_osd.Oid.t list
(** Objects matching one tag/value pair, ascending OID order. An [Id]
    pair returns the OID itself iff the object exists. *)

val query : t -> (Tag.t * string) list -> Hfad_osd.Oid.t list
(** Conjunction across pairs: "the result of such an operation is the
    conjunction of the results of an index lookup for each element in
    the vector." Empty input returns []. *)

val selectivity : t -> Tag.t * string -> int
(** Estimated result count for one pair; drives conjunction order. *)

val contains : t -> Hfad_osd.Oid.t -> Tag.t * string -> bool
(** Point probe: does this object match the pair? One index descent,
    regardless of how popular the value is. The conjunction engine
    probes candidates against popular pairs instead of scanning their
    postings (ablation A1 measures the difference). *)

(** {1 Prefix queries} *)

val lookup_prefix : t -> Tag.t -> string -> (string * Hfad_osd.Oid.t) list
(** Attribute pairs whose value starts with a prefix (POSIX directory
    listings). @raise Unsupported_tag for [Fulltext]/[Id]. *)

(** {1 Maintenance} *)

val drop_object : t -> Hfad_osd.Oid.t -> unit
(** Remove every trace of an object from every index (synchronously). *)

val verify : t -> unit
(** Verify each underlying index. @raise Failure on violation. *)
