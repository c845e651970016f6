(** Wire protocol of the network front door.

    A tiny length-prefixed binary protocol over TCP — the paper's native
    API (put/get/delete + the naming operations tag/search/stat) made
    remotely callable, plus the two control verbs a durability pipeline
    needs ([Flush] = client-visible fsync barrier, [Ping] = liveness and
    RTT floor) and three observability verbs ([Stats] = compact binary
    snapshot, [Metrics] = Prometheus 0.0.4 text exposition, [Trace_dump]
    = recent span ring as Chrome trace JSON).

    {b Frame layout} (all integers big-endian):

    {v
      u32  length     bytes after this field (= 5 + payload)
      u32  id         request id, echoed verbatim in the response
      u8   kind       opcode (requests) / status (responses)
      ...  payload    kind-specific, see below
    v}

    {b Trace context.} Request kind bit [0x80] flags a traced frame: the
    payload starts with the caller's [u64] trace id, followed by the
    inner request's payload unchanged ({!request.Traced}). The server
    attaches the id to the spans it records for that request, so a
    client-side Chrome trace and the server's [Trace_dump] stitch into
    one timeline. Peers that never set the bit interoperate unchanged.

    Inner strings are length-prefixed ([u16] for keys/tags/values,
    trailing-bytes for content and error messages, so bulk data is never
    re-framed). A frame whose [length] exceeds {!max_frame_bytes}, whose
    opcode is unknown, or whose payload disagrees with its inner length
    fields is {e malformed}: the server answers [Err] and closes that
    connection — framing is not recoverable once the stream is
    desynchronized.

    Responses carry their own kind byte (not the request's), so decoding
    is context-free: every [kind × payload] combination decodes without
    knowing which request it answers. Responses to one connection may
    arrive out of request order (reads are answered immediately,
    mutation acks ride the next group commit); match on [id].

    Objects are keyed by a [UDEF/<key>] name — one name among many, per
    the paper; [Tag] attaches more. *)

val max_frame_bytes : int
(** Hard bound on [length] (16 MiB): larger frames are malformed, never
    buffered. *)

(** The [Stats] snapshot: everything the remote dashboard needs in one
    frame. Quantiles are computed server-side from the cumulative
    histogram buckets, so a scraper never needs to know the bucket
    ladder; rates are deltas between two snapshots, computed by the
    consumer ([hfadctl top], experiment O2). *)
module Stats : sig
  type op_stat = {
    op : string;  (** "put", "get", ..., "sync" *)
    count : int;
    sum_us : int;
        (** total observed latency — delta-mean between snapshots *)
    p50_us : int;
    p90_us : int;
    p99_us : int;
        (** [max_int] when the quantile falls in the +Inf bucket *)
  }

  type shard_stat = {
    shard : int;
    checkpoints : int;  (** journal commits sealed since format *)
    journal_capacity_pages : int;  (** 0 = unjournaled *)
    dirty_pages : int;
    resident_pages : int;  (** pager frames holding a page (A1in+Am) *)
    cache_pages : int;  (** pager capacity *)
    backlog : int;
        (** the shard's index backlog: objects marked for reindexing and
            not yet drained (a SEARCH drains it; see {!Search}) *)
  }

  type t = {
    uptime_us : int;
    connections : int;  (** gauge *)
    inflight : int;  (** gauge, summed over live connections *)
    requests : int;
    busy : int;
    errors : int;
    batches : int;
    batch_ops : int;
    bytes_in : int;
    bytes_out : int;
    trace_spans : int;
    trace_dropped : int;
        (** span loss (ring wrap): non-zero means [Trace_dump] is
            incomplete *)
    flusher_queue_age_us : int;
        (** age of the oldest acknowledgment still awaiting its commit *)
    ops : op_stat list;
    shards : shard_stat list;
    slow : string list;  (** JSONL slow-request log, oldest first *)
  }
end

(** One step of a MULTI transaction frame. Encoded as a [u8] opcode
    followed by [u16]-prefixed fields; [Tput] data carries its own [u32]
    length (several bulk payloads share one frame, so trailing-bytes
    framing is unavailable). *)
type txn_op =
  | Tput of { key : string; data : string }
      (** create-or-replace the object named [UDEF/key] *)
  | Tdelete of { key : string }
  | Ttag of { key : string; tag : string; value : string }
  | Tuntag of { key : string; tag : string; value : string }
  | Trename of { from_ : string; to_ : string }
      (** atomically re-key: the object named [UDEF/from_] becomes
          [UDEF/to_] *)

type request =
  | Ping
  | Put of { key : string; data : string }
      (** create-or-replace the object named [UDEF/key], atomically: it
          runs as a one-step [Multi] plan, so no reader sees a partly
          replaced value. On a journaled server a crash keeps the old
          value or the new one, and the value is bounded by one journal
          commit: a PUT too large to seal in one answers [Err]
          ([Txn_invalid]) and leaves the old value in place. [Delete]
          and [Tag] are one-step plans too. *)
  | Get of { key : string }
  | Delete of { key : string }
  | Tag of { key : string; tag : string; value : string }
      (** attach one more [TAG/value] name (tag parsed per
          {!Hfad_index.Tag.of_string}) *)
  | Search of { query : string }
      (** ranked full-text search. The server first drains the index
          backlog of every shard that has one, so a SEARCH sees every
          acked PUT; a shard holding a document too large to index
          answers [Err] ("cache full: ..."), never a stale hit list. *)
  | Stat of { key : string }
  | Flush  (** barrier: ack only once everything this connection was
               acked for is durable *)
  | Multi of { ops : txn_op list }
      (** execute the whole plan as ONE atomic transaction
          ({!Hfad.Fs.with_txn}): a crash recovers it wholly applied or
          wholly absent, and no other request observes a prefix. Later
          steps see earlier steps' effects (a [Tput]-created key may be
          tagged, renamed or deleted by the same plan). A plan the
          executor cannot commit atomically (e.g. spanning shards on a
          sharded stack) answers [Err] with nothing applied. *)
  | Stats
      (** scrape the compact binary snapshot — answered [Ok_stats],
          never deferred behind a commit *)
  | Metrics
      (** scrape the full Prometheus 0.0.4 text exposition of the
          server process — answered [Ok_data] *)
  | Trace_dump
      (** dump the recent span ring as Chrome trace JSON — answered
          [Ok_data]; check {!Stats.t.trace_dropped} for ring overflow *)
  | Traced of { trace : int64; req : request }
      (** [req] carrying the caller's trace id (kind bit [0x80] + [u64]
          payload prefix). Encoding a nested [Traced] raises
          [Invalid_argument]; decoding cannot produce one. *)

type response =
  | Ok_unit  (** Ping/Delete/Tag/Flush success *)
  | Ok_oid of int64  (** Put success: the object's OID *)
  | Ok_data of string  (** Get success *)
  | Ok_hits of (int64 * float) list  (** Search success: (oid, score) *)
  | Ok_stat of { oid : int64; size : int64 }  (** Stat success *)
  | Ok_oids of int64 list
      (** Multi success: the OID each [Tput] touched, in plan order *)
  | Ok_stats of Stats.t  (** Stats success *)
  | Not_found  (** no object named [UDEF/key] *)
  | Busy
      (** backpressure: the connection exceeded its inflight budget; the
          request was {e not} executed — retry after draining replies *)
  | Err of string  (** failed (storage error, malformed frame, bad tag) *)

val pp_txn_op : Format.formatter -> txn_op -> unit
val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
val equal_request : request -> request -> bool
val equal_response : response -> response -> bool

(** {1 Encoding} *)

val encode_request : id:int -> request -> string
(** One complete frame. [id] is truncated to 32 bits. *)

val encode_response : id:int -> response -> string

(** {1 Decoding}

    A {!Stream.t} consumes raw TCP bytes and yields complete frames;
    partial frames wait for more input, malformed input is terminal. *)

module Stream : sig
  type 'msg t

  type 'msg item =
    | Frame of int * 'msg  (** id, decoded message *)
    | Awaiting  (** no complete frame buffered; feed more bytes *)
    | Bad of { id : int option; reason : string }
        (** malformed frame ([id] when the header was readable); the
            stream is desynchronized — every later {!next} returns
            [Bad], the connection must close *)

  val requests : unit -> request t
  val responses : unit -> response t

  val feed : 'msg t -> bytes -> int -> unit
  (** [feed t buf n] appends the first [n] bytes of [buf]. *)

  val feed_string : 'msg t -> string -> unit

  val next : 'msg t -> 'msg item
  (** Decode the next complete frame, consuming it. *)

  val buffered : 'msg t -> int
  (** Bytes fed but not yet consumed (bounded by one frame +
      readahead; the fixed header is enough to reject oversized
      frames, so a hostile length prefix never allocates). *)
end
