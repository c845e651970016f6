(** Tags — Table 1 of the paper.

    "An object is named by one or more tag/value pairs. A tag tells hFAD
    how to interpret the value and in which of multiple indexes to search
    for the value." (§3.1.1)

    The six built-in tags are exactly the paper's:
    - [Posix]    — value is a full POSIX pathname (the compatibility veneer);
    - [Fulltext] — value is a search term;
    - [User]     — value is a logname (manual and application tagging);
    - [Udef]     — value is a free-form user annotation;
    - [App]      — value is the name of the application that produced the
                   object (the provenance-style use of [3]);
    - [Id]       — value is an object identifier: the fast path that
                   bypasses every index ("supporting object reference
                   caching inside applications").

    [Custom] covers §4's open question about arbitrary plug-in index
    types: an image hash is an ordinary [Custom "IMAGE"] name. *)

type t =
  | Posix
  | Fulltext
  | User
  | Udef
  | App
  | Id
  | Custom of string

val builtin : t list
(** The six paper tags, [Custom] excluded. *)

val to_string : t -> string
(** Canonical upper-case name: ["POSIX"], ["FULLTEXT"], ...; custom tags
    render as their (upper-cased) name. *)

val of_string : string -> t
(** Case-insensitive parse; unknown names become [Custom].
    @raise Invalid_argument on the empty string or names containing
    ['/']. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val pp_pair : Format.formatter -> t * string -> unit
(** Renders ["TAG/value"], the notation the paper uses (e.g.
    ["POSIX/P"], ["FULLTEXT/S1"]). *)

val pair_of_string : string -> t * string
(** Parse ["TAG/value"]. @raise Invalid_argument if no ['/'] is
    present. *)
