(** The network front door: a multi-domain TCP server speaking
    {!Wire} over the native {!Hfad.Fs} API.

    {b Topology.} One {e accept} domain owns the listening socket and
    deals new connections round-robin onto a fixed pool of {e worker}
    domains. Each worker multiplexes its connections with [select] and
    runs a read → execute → commit → reply loop:

    + drain every readable connection, decoding complete frames;
    + answer reads ([Ping]/[Get]/[Search]/[Stat]) immediately. A
      [Search] first drains the index backlog of every shard that has
      one ({!Hfad.Fs.drain_index}), so it sees every acked PUT: a group
      commit seals marks, not the index. [Hfad.Fs.search] itself stays
      lazy. A shard holding a document too large to index answers a
      typed [Err];
    + apply mutations ([Put]/[Delete]/[Tag]/[Multi]) to the [Fs], each
      as one {!Hfad.Fs.with_txn} plan, so no reader sees half of one —
      each is {e acknowledged} into the write pipeline but its reply is
      held back;
    + issue {b one} {!Hfad.Fs.sync} for the whole iteration and only
      then release every held reply — one group commit acks the batch,
      so the journal's fixed cost is paid once per batch, not once per
      request. ([Config.sync_ack] instead barriers after every mutation
      — the per-request-durability baseline bench S1 measures against.)

    {b Backpressure.} A connection may have at most
    [Config.max_inflight] requests accepted-but-unanswered. Frames
    beyond that budget are answered [Busy] {e without being executed} —
    the server never buffers unboundedly on behalf of a client that will
    not read its replies. Malformed or oversized frames get an [Err]
    reply and the connection is closed (framing cannot resynchronize);
    the worker keeps serving its other connections.

    {b Observability.} Spans [server.accept], [server.request] (attrs
    [op], [conn], and [trace_id] when the frame carried
    {!Wire.request.Traced} context) and [server.batch] (attr [ops]);
    pooled counters
    [server<N>.{accepted,connections,requests,inflight,busy,batches,
    batch_ops,errors,bytes_in,bytes_out}] — [connections] and
    [inflight] are gauges, the rest monotone. Per-op latency histograms
    [server.latency_us.{put,get,delete,tag,search,stat,multi,sync}]
    ([Flush] is measured as [sync]) are observed around execute; they
    are process-global, shared by every instance. The whole picture is
    remotely scrapeable: [Stats] answers a compact binary snapshot
    ({!Wire.Stats.t}, including the slow-request log and each shard's
    index backlog), [Metrics] the
    process's Prometheus exposition, [Trace_dump] the span ring as
    Chrome trace JSON. A request slower than [Config.slow_threshold_us]
    (measured around execute, excluding any deferred commit wait) is
    appended to a bounded in-memory JSONL ring exported via [Stats]. *)

module Config : sig
  type t = {
    workers : int;  (** worker domains (default 2) *)
    max_inflight : int;
        (** per-connection accepted-but-unanswered bound (default 64) *)
    sync_ack : bool;
        (** barrier per mutation instead of per batch (default false) *)
    read_bytes : int;  (** bytes read per connection per wakeup (default 64 KiB) *)
    slow_threshold_us : int;
        (** record requests at least this slow (µs, around execute) in
            the slow log; 0 disables it (the default) *)
  }

  val default : t

  val v :
    ?workers:int -> ?max_inflight:int -> ?sync_ack:bool -> ?read_bytes:int ->
    ?slow_threshold_us:int -> unit -> t
end

type t

val start : ?config:Config.t -> ?port:int -> Hfad.Fs.t -> t
(** Bind [127.0.0.1:port] ([port = 0], the default, picks an ephemeral
    port — read it back with {!port}), start the accept domain and the
    worker pool, and start the [Fs] write pipeline (a no-op if already
    running or the [Fs] is [sync_writes]). The caller keeps ownership of
    the [Fs]: {!stop} does not close it.
    @raise Unix.Unix_error if the socket cannot be bound. *)

val port : t -> int
val running : t -> bool

val stop : t -> unit
(** Close the listening socket, wake every worker, close every
    connection (pending batched acks are barriered and flushed out
    first), join all domains and release the metrics prefix. Idempotent. *)

(** {1 Statistics} *)

val stats : t -> Wire.Stats.t
(** The snapshot the [Stats] verb sends, read in process. [requests]
    counts well-formed frames executed (BUSY excluded), [batches] the
    group-commit barriers issued for deferred acks and [batch_ops] the
    acks they released. *)

val metrics_prefix : t -> string
(** The pooled [server<N>] prefix this instance publishes under; read
    counters the snapshot omits, such as [<prefix>.accepted], from the
    global registry under it. *)
