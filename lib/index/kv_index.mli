(** Key/value string index — the workhorse behind POSIX, USER, UDEF, APP
    and custom attribute tags, image hashes (IMAGE) included.

    "A key/value store suffices for simple attributes" (§3.2). One
    namespaced slice of a shared B-tree holds both directions of the
    association:

    - forward:  [ns '\001' value '\000' oid8] → [""] — who carries this
      value? (sorted by value, then OID: equality {e and} prefix lookups)
    - reverse:  [ns '\002' oid8 value] → [""] — which values does this
      object carry? (object deletion, introspection)

    Values may not contain ['\000'] (the value/OID separator) and are
    bounded by the backing tree's key budget. An object can carry many
    values and one value can name many objects — exactly the paper's
    "a data item may have many names, all equally useful". *)

type t

val create : Hfad_btree.Btree.t -> namespace:string -> t
(** A view over [tree]; distinct namespaces on one tree are independent
    indexes. The namespace must not contain ['\001'] or ['\002']. *)

val namespaces : Hfad_btree.Btree.t -> string list
(** Every namespace with at least one key in [tree], in key order. A
    skip-scan: one {!Hfad_btree.Btree.seek} per namespace, from [""]
    and then from [ns '\003'], which sorts above every key of [ns]
    (they all start [ns '\001'] or [ns '\002']).
    @raise Failure on a key that holds neither byte (not an index
    key). *)

val max_value_len : t -> int
(** Longest value this index accepts. *)

exception Value_not_indexable of string
(** Raised by {!add} for values with ['\000'] or over-long values. *)

val check_value : t -> string -> unit
(** Raise {!Value_not_indexable} for a value {!add} would refuse. *)

val add : t -> Hfad_osd.Oid.t -> string -> unit
(** Associate (idempotent). *)

val remove : t -> Hfad_osd.Oid.t -> string -> bool
(** Dissociate; returns whether the association existed. *)

val mem : t -> Hfad_osd.Oid.t -> string -> bool

val lookup : t -> string -> Hfad_osd.Oid.t list
(** Objects carrying exactly this value, ascending OID. *)

val lookup_prefix : t -> string -> (string * Hfad_osd.Oid.t) list
(** [(value, oid)] pairs whose value starts with the prefix, in
    (value, OID) order — directory listings for the POSIX veneer. *)

val values_of : t -> Hfad_osd.Oid.t -> string list
(** Values carried by an object, sorted. *)

val drop_object : t -> Hfad_osd.Oid.t -> int
(** Remove every association of an object; returns how many there
    were. *)

val cardinal : t -> int
(** Total number of associations. *)

val count_value : t -> string -> int
(** Number of objects carrying a value (exact; O(count)). *)

val count_value_capped : t -> string -> cap:int -> int
(** [min cap (count_value t v)], stopping the scan at [cap] entries —
    the planner's selectivity estimator (ordering decisions never need
    more precision than the cap). *)

val verify : t -> unit
(** Forward and reverse directions must mirror each other.
    @raise Failure on violation. *)
