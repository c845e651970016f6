(** Physical write-ahead journal — crash-consistent checkpoints.

    §1 of the paper opens with file systems adopting database technology
    — "journaling (logging), transactions, btrees" — and §3.3 leaves the
    OSD's transactionality as "an implementation decision". This module
    makes that decision concrete with the classic NO-STEAL / FORCE
    scheme:

    - dirty pages never reach their home location between checkpoints
      (the pager runs in no-steal mode, see
      {!Hfad_pager.Pager.create});
    - a checkpoint first appends every dirty page to the journal region
      as one or more CRC-sealed records, barriers them, and only then
      seals the whole group with a self-checksummed header; then the
      pages go home and the journal is marked clean.

    A crash therefore leaves the device in one of four states, all
    recoverable without an exception: (1) journal clean → home locations
    are consistent as of the previous checkpoint; (2) record bodies
    partially written, header still clean → discard, previous state in
    force; (3) the header seal write itself tore → {!recover} reports
    {!recovery.Torn_seal}, previous state in force, {!mark_clean} heals
    the header; (4) journal sealed, home writes possibly torn →
    {!recover} returns the batch for replay (replay is idempotent).
    Only post-crash media corruption (bit rot inside a sealed record)
    yields {!recovery.Corrupt}, a typed double-fault report.

    Group commit: a batch is split into records of at most
    [(block_size - 12) / 4] pages each, every record independently
    CRC-sealed and replayed in sequence order, so large checkpoints
    degrade into more records rather than one monolithic payload.

    On-device layout (a dedicated block range):
    {v
    block 0:   header — magic, version, sequence, state (clean/committed),
               record count, op count, CRC-32 over all preceding header
               bytes
    block 1..: records, back-to-back; each record is one descriptor block
               (u32 page count, payload CRC-32, u32 home page numbers,
               descriptor CRC-32) followed by the raw page images
    v}

    The payload CRC-32 is that of the record's page images joined
    together. It is computed by chaining {!Hfad_util.Crc32.bytes}'s
    [?crc] seed image by image, on commit and on recovery alike, so no
    joined payload is ever built and a commit writes the caller's page
    buffers as handed in.

    Multi-op record chains: a {!commit} may carry the dirty set of many
    logical operations — a whole transaction — as one sealed chain. The
    seal's [ops] field annotates how many, so {!recover} can report
    exactly how many logical operations a replayed (or discarded)
    checkpoint carried ({!committed_ops}). *)

type t

exception Journal_full of { needed_blocks : int; have_blocks : int }

(** Why an attach or recovery could not trust the on-device journal. *)
type reason =
  | Bad_magic  (** region was never formatted, or was overwritten *)
  | Bad_version of int
  | Bad_state of int  (** header self-CRC valid yet state byte impossible *)
  | Bad_geometry of string  (** a sealed record chain escapes the region *)
  | Record_fails_crc of { record : int }
      (** a sealed record's descriptor or payload fails its CRC — media
          corruption after the seal (double fault) *)

val pp_reason : Format.formatter -> reason -> unit

(** Outcome of {!recover} — never an exception. *)
type recovery =
  | Clean  (** nothing to replay; home locations are current *)
  | Committed of (int * Bytes.t) list
      (** a sealed, un-checkpointed commit: the caller must write the
          pages home (in order) and then {!mark_clean} *)
  | Torn_seal
      (** the header seal tore mid-write: the batch never became
          durable; treat as {!Clean} after {!mark_clean} heals the
          header (the diagnostic sequence number restarts) *)
  | Corrupt of reason
      (** the journal cannot be trusted; surface to the operator *)

val format : Hfad_blockdev.Device.t -> first_block:int -> blocks:int -> t
(** Initialize a clean journal in [\[first_block, first_block+blocks)].
    @raise Invalid_argument if the region is under 2 blocks or the
    device's blocks are under 32 bytes. *)

val attach :
  Hfad_blockdev.Device.t -> first_block:int -> blocks:int -> (t, reason) result
(** Attach to an existing journal region (call {!recover} next). A torn
    header still attaches — {!recover} reports it; only a missing or
    alien region refuses, typed, so callers can reformat or fail
    cleanly. @raise Invalid_argument as {!format}. *)

val capacity_pages : t -> int
(** Largest page count a single {!commit} can carry, accounting for
    per-record descriptor overhead. *)

val would_fit : t -> pages:int -> bool
(** [would_fit t ~pages] is [true] iff a batch of [pages] pages fits the
    region — check it at checkpoint-assembly time, before any state is
    dirtied, rather than waiting for {!commit} to raise. *)

val commit : ?ops:int -> t -> (int * Bytes.t) list -> unit
(** [commit t pages] durably records [(home_page, contents)] pairs,
    split into CRC-sealed records, and seals the group. After [commit]
    returns, the batch will survive a crash. An empty batch is a no-op.
    [ops] annotates the seal with the number of logical operations the
    chain carries (default 0 = unannotated); a transaction's whole
    mutation plan commits as one chain with its op count in the seal.
    @raise Journal_full if the batch exceeds the region (callers should
    have asked {!would_fit} first). *)

val mark_clean : t -> unit
(** Declare the home locations up to date (checkpoint complete). Also
    heals a torn header after a {!recovery.Torn_seal}. *)

val recover : t -> recovery
(** Inspect the journal after a crash. Never raises: every outcome —
    clean, sealed batch to replay, torn seal, corruption — is a typed
    {!recovery} case. *)

val sequence : t -> int64
(** Monotonic commit sequence number (diagnostics). *)

val committed_ops : t -> int
(** The [ops] annotation of the most recent seal written or read (by
    {!attach}/{!recover}); 0 after {!mark_clean} or when the last commit
    was unannotated. Diagnostics: after a crash this is how many logical
    operations the sealed chain carried. *)

(** {1 Record codec (exposed for property tests)} *)

val records_for : t -> pages:int -> int
(** Number of sealed records a batch of [pages] pages splits into. *)

val encode_batch : t -> (int * Bytes.t) list -> Bytes.t list
(** Block images (descriptor + page images per record, back-to-back)
    exactly as {!commit} lays them out from [first_block + 1]. The page
    images are the given buffers themselves, not copies; only the
    descriptors are fresh.
    @raise Invalid_argument on a page-size mismatch. *)

val decode_batch :
  t -> records:int -> Bytes.t list -> ((int * Bytes.t) list, reason) result
(** Inverse of {!encode_batch} given the sealed record count; returns
    the typed reason on any CRC or geometry violation. The returned
    page images are the given blocks themselves, not copies. *)
