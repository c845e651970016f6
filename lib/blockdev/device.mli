(** Simulated block device — the "Stable Storage" box of Figure 1.

    Fixed-size blocks, in-memory backing store, accumulated simulated
    cost (see {!Latency}), per-device statistics, and fault injection for
    failure testing. Blocks are allocated lazily so a multi-gigabyte
    device is cheap until written.

    Thread safety: a device guards its state with a mutex so the C2
    concurrency experiment can drive one device from several domains. *)

type t

exception Out_of_range of { block : int; blocks : int }
(** Raised when accessing a block index outside the device. *)

exception Io_error of string
(** Raised by injected faults. *)

val create :
  ?model:Latency.t -> ?checksums:bool -> block_size:int -> blocks:int -> unit -> t
(** [create ~block_size ~blocks ()] makes a device of [blocks] blocks of
    [block_size] bytes each, initially all zeroes. Default model is
    {!Latency.zero}. With [checksums:true] the device keeps a CRC-32 per
    written block and verifies it on every read, turning silent
    corruption (torn writes, bit rot — injectable with
    {!corrupt_block}) into {!Io_error}. @raise Invalid_argument if
    either size parameter is not positive. *)

val block_size : t -> int
val blocks : t -> int
val size_bytes : t -> int

(** {1 Sub-device windows}

    A value of type {!t} is a {e window} onto physical storage —
    {!create} returns the whole-device window, {!sub} a smaller one.
    Disjoint windows let N independent storage stacks (one per shard)
    share one physical device: one image file, one crash domain, one
    statistics ledger. Block indices are window-relative; faults, crash
    points, {!stats} and {!save} are device-wide (a power cut does not
    respect region boundaries), and fault hooks observe {e physical}
    block numbers. *)

val sub : t -> first_block:int -> blocks:int -> t
(** [sub t ~first_block ~blocks] is the window of [blocks] blocks whose
    block 0 is [t]'s block [first_block]. Windows compose.
    @raise Invalid_argument if the range leaves [t]. *)

val is_sub : t -> bool
(** Whether this window is strictly smaller than the physical device. *)

val first_block : t -> int
(** Physical block behind this window's block 0 (0 for a whole device). *)

val read_block : t -> int -> Bytes.t
(** [read_block dev idx] returns a fresh copy of block [idx].
    @raise Out_of_range on a bad index. @raise Io_error on injected
    fault. *)

val read_block_into : t -> int -> Bytes.t -> unit
(** Like {!read_block} but blits into a caller buffer of exactly
    [block_size] bytes (avoids allocation on the pager hot path). *)

val write_block : t -> int -> Bytes.t -> unit
(** [write_block dev idx data] stores [data] (must be exactly
    [block_size] long) at [idx]. The device copies [data] into the
    block it holds, so the caller may reuse [data] at once; a block
    written before is overwritten in place, without allocating. *)

val flush : t -> unit
(** Barrier; counted in stats. A no-op for the memory backend. *)

(** {1 Image files}

    The device can checkpoint itself to a host file so tools (the
    [hfadctl] CLI) can work on a persistent image across process runs.
    The format is sparse: untouched blocks cost nothing. *)

val save : t -> string -> unit
(** [save dev path] writes the device image to [path] (atomic via a
    temporary file + rename). Always the whole physical device, whatever
    window it is called through. *)

val load : ?model:Latency.t -> string -> t
(** [load path] recreates a device from an image file.
    @raise Io_error on a missing or malformed image. *)

(** {1 Fault injection}

    [set_fault dev f] installs a hook consulted before every read and
    write; returning [true] makes the access raise {!Io_error}. Use
    [clear_fault] to remove. *)

type op = Read | Write

val set_fault : t -> (op -> int -> bool) -> unit
val clear_fault : t -> unit

(** {1 Crash-point injection}

    Deterministic power-cut simulation for crash-consistency sweeps:
    [arm_crash dev ~after_writes:n ()] lets the next [n] block writes
    complete normally, then kills the device on write [n] (0-based). The
    dying write persists nothing by default; with [torn_bytes:k] it
    persists exactly the first [k] bytes of the block (the tail keeps
    its previous content) — a torn write. The dying write and every
    subsequent write or {!flush} raise {!Io_error}; reads keep serving
    the last-synced state, so the surviving image can be inspected or
    {!save}d and re-attached. A torn write does not refresh the
    checksummed device's stored CRC, so the tear stays detectable. *)

val arm_crash : t -> after_writes:int -> ?torn_bytes:int -> unit -> unit
(** @raise Invalid_argument if [after_writes < 0] or [torn_bytes] is
    outside [\[0, block_size\]]. Re-arming replaces the previous crash
    point. *)

val disarm_crash : t -> unit
(** Remove the crash point; a dead device comes back to life (the sweep
    harness uses image snapshots instead, but tests may revive). *)

val crashed : t -> bool
(** Has an armed crash point fired? *)

val corrupt_block : t -> int -> byte:int -> unit
(** [corrupt_block dev idx ~byte] flips one bit of the stored block
    behind the device's back (no checksum update, no statistics) —
    simulated bit rot for failure-injection tests.
    @raise Out_of_range / @raise Invalid_argument on bad coordinates or
    if the block was never written. *)

(** {1 Statistics} *)

type stats = {
  reads : int;
  writes : int;
  flushes : int;
  bytes_read : int;
  bytes_written : int;
  simulated_ns : int;  (** accumulated cost under the latency model *)
}

val stats : t -> stats
val reset_stats : t -> unit
val pp_stats : Format.formatter -> stats -> unit
