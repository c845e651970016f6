(** The full-text index store — hFAD's Lucene substitute (§3.4: "we use
    Lucene for full-text search indices").

    The inverted index lives in a B-tree on the same device as everything
    else ("we've ported both Berkeley DB and Lucene to sit atop the raw
    device and the storage allocator"), so full-text lookups are index
    traversals measurable by the same counters as the rest of the system.

    Key layout inside the backing tree (term bytes never contain ['\000']
    because the tokenizer emits lowercase alphanumerics):

    - ["P" term '\000' oid8]  → varint term frequency   (postings)
    - ["G" oid8 term]         → empty                    (forward index,
      so a document can be un-indexed without its text)
    - ["F" term]              → varint document frequency
    - ["D" oid8]              → varint token count of the document
    - ["N"]                   → varint number of documents
    - ["X" oid8]              → empty                    (a mark: the
      document's bytes changed since it was last indexed; see {!mark})

    A postings scan ([fold_prefix] on ["P" term '\000']) yields OIDs in
    ascending order because the OID encoding is order-preserving, so
    conjunctive queries are sorted-list intersections, cheapest-term
    first — the query-processing lesson the paper carries over from the
    authors' provenance work [3].

    All operations are serialized by an internal mutex, so an index
    shared between domains stays consistent even without an outer lock
    (inside hFAD, {!Hfad_index.Index_store} also holds its shard's
    lock around every drain and query). *)

type t

val create : Hfad_btree.Btree.t -> t
(** Wrap a B-tree (empty for a fresh index, or one left by a previous
    run) as a full-text index. The tree must not be used for anything
    else. *)

(** {1 Indexing}

    One write path: a batch, {!prepare}d and then {!apply}d.
    {!index_batch} is the two in one call, and {!add_document} and
    {!remove_document} are batches of one. *)

type batch
(** The sorted key changes that bring a list of documents up to date. *)

val prepare : t -> (Hfad_osd.Oid.t * string option) list -> batch
(** [prepare t docs] computes the key changes of {!index_batch}[ t docs]
    and writes nothing: it reads each document's forward keys. The
    batch must be applied once, with no other write to the index
    between the two calls (inside hFAD, the shard's exclusive section
    spans both). *)

val footprint : t -> batch -> int
(** An estimate, erring high, of the pages {!apply} would dirty,
    counted read-only ({!Hfad_btree.Btree.footprint}). *)

val apply : t -> batch -> unit
(** Apply a prepared batch in one ascending pass over the tree. *)

val index_batch : t -> (Hfad_osd.Oid.t * string option) list -> unit
(** [index_batch t docs] brings every listed document up to date:
    [Some text] indexes (or reindexes) the document as [text], and
    [None] unindexes it (a no-op for an OID that is not indexed). Either
    way the document's mark is unbound. The OIDs must be distinct
    ([Invalid_argument] otherwise).

    The index keeps no copy of a text, so a document's old terms come
    from its forward keys. They are merged, in term order, with the new
    text's term frequencies into key changes:
    - a term only in the old text loses its posting and forward key;
    - a term only in the new text gains them;
    - a term in both keeps its forward key, and its posting is rewritten
      only if its frequency changed.

    Each term's document-frequency delta is summed over the batch, so a
    term shared by many documents gets one update; a document record is
    rewritten only if its token count changed; and the document count
    moves once, by the number of documents gained or lost. All the
    changes are sorted by key and applied in one ascending pass over the
    tree ({!Hfad_btree.Btree.apply_sorted}), which visits each touched
    leaf once per run of keys in it and writes no binding whose value
    does not change.

    The marks sort after every index key, so they are unbound last: a
    pass that raises part-way leaves every mark of the batch bound.

    The resulting bindings are exactly those of removing each document
    and indexing it afresh, and re-indexing unchanged texts writes
    nothing.
    @raise Failure when a counter would go below zero (an index that
    disagrees with itself); the changes before it stay applied. *)

val add_document : t -> Hfad_osd.Oid.t -> string -> unit
(** [add_document t oid text] is [index_batch t [(oid, Some text)]]. *)

val remove_document : t -> Hfad_osd.Oid.t -> unit
(** [remove_document t oid] is [index_batch t [(oid, None)]]. *)

(** {1 Marks}

    A mark records, in the index's own tree, that a document's bytes
    changed since it was last indexed: {!Hfad_index.Index_store} binds
    one when it first marks an object, so the seal that carries the
    change carries its mark, and a reopened index reads its backlog back
    with {!marked}. Only {!index_batch} (and {!apply}) unbinds one. *)

val mark : t -> Hfad_osd.Oid.t -> unit
(** Bind the document's mark. *)

val marked : t -> Hfad_osd.Oid.t list
(** Every marked document, ascending OID order: one prefix scan. *)

val is_indexed : t -> Hfad_osd.Oid.t -> bool
val doc_count : t -> int

(** {1 Queries} *)

val document_frequency : t -> string -> int
(** Number of documents containing a term. *)

val postings : t -> string -> (Hfad_osd.Oid.t * int) list
(** [(oid, term_frequency)] pairs for a term, ascending OID order. *)

val mem_posting : t -> string -> Hfad_osd.Oid.t -> bool
(** Whether a document contains a term — one point probe, no postings
    scan (conjunction engines use this to test candidates against
    popular terms). *)

val search : t -> string list -> Hfad_osd.Oid.t list
(** Conjunctive query: OIDs containing {e all} the given terms, ascending
    order. "The result of such an operation is the conjunction of the
    results of an index lookup for each element in the vector" (§3.1.1).
    Terms are normalized through the tokenizer; an empty term list
    returns []. *)

val search_scored : t -> string list -> (Hfad_osd.Oid.t * float) list
(** {!search} ranked by TF-IDF (descending score). *)

val search_text : t -> string -> (Hfad_osd.Oid.t * float) list
(** Tokenize a free-text query, then {!search_scored}. *)

(** {1 Maintenance} *)

val verify : t -> unit
(** Structural check: document frequencies agree with postings, doc count
    agrees with document records, no orphan postings.
    @raise Failure on violation. *)
