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

(** {1 Indexing} *)

val add_document : t -> Hfad_osd.Oid.t -> string -> unit
(** [add_document t oid text] indexes [text] under [oid]. Re-adding an
    already-indexed OID replaces only what changed. The index keeps no
    copy of the text, so the old terms come from the forward keys; they
    are merged, in term order, with the new text's term frequencies:
    - a term only in the old text loses its posting, its forward key
      and one unit of document frequency;
    - a term only in the new text gains them;
    - a term in both keeps its forward key and document frequency, and
      its posting is rewritten only if its frequency changed;
    - the document record is rewritten only if its token count changed,
      and the document count moves only for a new document.

    The resulting bindings are exactly those of removing the document
    and indexing it afresh; re-adding an unchanged text writes
    nothing. *)

val remove_document : t -> Hfad_osd.Oid.t -> unit
(** Remove every posting of [oid]. No-op if the OID is not indexed. *)

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
