(** The group-commit write pipeline's background daemon.

    The paper's native API decouples mutation from durability: a write
    returns once the in-memory state is updated, and a single journaled
    checkpoint later makes a whole {e batch} of logical operations
    durable at once, amortizing the journal's fixed cost (header seal,
    device barriers) over the batch. This module is the daemon half of
    that contract; {!Fs} wires it to the OSD checkpoint and the
    content-index drain.

    Protocol:
    {ul
    {- Every acknowledged mutation calls {!note_mutation} (from inside
       the stack's exclusive section), which assigns it the next
       sequence number.}
    {- The daemon thread sleeps until a barrier, the size trigger
       (dirty pages ≥ [batch_max_pages] after a mutation), the age
       deadline (oldest unflushed mutation [batch_max_age] seconds old)
       or {!stop}, and then runs the commit closure {e once} for
       everything acknowledged so far. There is no poll: each of these
       wakes the daemon at once, and with nothing pending it sleeps
       until woken.}
    {- {!barrier} blocks until every mutation acknowledged before the
       call is durable — the pipeline's fsync.}}

    The commit closure is always invoked {e without} the flusher's own
    mutex held, so it is free to take the stack's {!Hfad_util.Rwlock}
    exclusively; mutators calling {!note_mutation} under that same lock
    can never deadlock against the daemon.

    Failure is sticky: if a commit fails, the error is recorded, every
    present and future {!barrier} returns it, and the daemon exits
    rather than silently retrying against a sick device.

    Commit latency (µs), operations per batch and pages per batch are
    published as histograms ([fs.pipeline.commit_latency_us],
    [fs.pipeline.batch_ops], [fs.pipeline.batch_pages]) in the global
    metrics registry, plus a [fs.pipeline.commits] counter. *)

type t

val create :
  ?batch_max_pages:int ->
  ?batch_max_age:float ->
  dirty_count:(unit -> int) ->
  commit:(unit -> (unit, Hfad_osd.Osd.error) result) ->
  unit ->
  t
(** [create ~dirty_count ~commit ()] builds a pipeline (not yet
    running). [dirty_count] is read at every {!note_mutation} (so it
    must be O(1)) to decide the size trigger; [commit] must make every
    currently acknowledged mutation durable and is never invoked
    concurrently with itself. [batch_max_pages] (default 256) and
    [batch_max_age] (default 10 ms) are the flush triggers; either alone
    suffices. *)

val start : t -> unit
(** Spawn the daemon thread, and the pipe it sleeps on. No-op if
    already running. Clears any sticky failure from a previous run. *)

val stop : t -> unit
(** Drain: trigger a final commit of everything acknowledged, wait for
    it, join the daemon thread and close its pipe. No-op if not running.
    A sticky failure survives [stop] (read it with {!barrier}). *)

val running : t -> bool

val note_mutation : t -> unit
(** Acknowledge one logical mutation into the current batch. Safe (and
    intended) to call while holding the stack's exclusive lock. *)

val barrier : t -> (unit, Hfad_osd.Osd.error) result
(** Block until every mutation acknowledged before this call is durable.
    [Ok ()] immediately when nothing is pending. [Error e] if the commit
    that should have covered this barrier failed ([e] is the sticky
    commit error) or the daemon is not running while work is pending
    ([Error Stopped]). *)

(** {1 Introspection} *)

type stats = {
  acked : int;      (** mutations acknowledged into the pipeline *)
  durable : int;    (** highest acknowledged mutation made durable *)
  commits : int;    (** group commits issued (this process) *)
}

val stats : t -> stats

val commit_latency : t -> Hfad_metrics.Histogram.t
(** Per-commit wall time, microseconds. *)

val batch_ops : t -> Hfad_metrics.Histogram.t
(** Logical mutations retired per commit. *)

val batch_pages : t -> Hfad_metrics.Histogram.t
(** Dirty pages at commit time per commit. *)
