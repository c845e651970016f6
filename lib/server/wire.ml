(* Wire codec for the network front door. See wire.mli for the frame
   layout. Strictness is the point: every decoder checks that inner
   lengths tile the payload exactly, so a corrupted or adversarial
   stream turns into [Bad] instead of a misparse, and the qcheck
   roundtrip property in test_server pins encode/decode as inverses. *)

let max_frame_bytes = 16 * 1024 * 1024

(* The STATS snapshot: one compact binary frame carrying everything the
   remote dashboard needs. Quantiles are computed server-side (from the
   cumulative histogram buckets) so a scraper never has to know the
   bucket ladder; rates are NOT included — they are deltas between two
   snapshots, computed by the consumer (hfadctl top, bench O2). *)
module Stats = struct
  type op_stat = {
    op : string;  (* "put", "get", ... "sync" *)
    count : int;
    sum_us : int;  (* for delta-mean latency between two snapshots *)
    p50_us : int;
    p90_us : int;
    p99_us : int;  (* max_int when the mass sits in the +Inf bucket *)
  }

  type shard_stat = {
    shard : int;
    checkpoints : int;  (* journal commits sealed since format *)
    journal_capacity_pages : int;  (* 0 = unjournaled *)
    dirty_pages : int;
    resident_pages : int;  (* pager frames holding a page (A1in + Am) *)
    cache_pages : int;  (* pager capacity *)
    backlog : int;  (* objects marked for reindexing, not yet drained *)
  }

  type t = {
    uptime_us : int;
    connections : int;  (* gauge *)
    inflight : int;  (* gauge, summed over connections *)
    requests : int;
    busy : int;
    errors : int;
    batches : int;
    batch_ops : int;
    bytes_in : int;
    bytes_out : int;
    trace_spans : int;
    trace_dropped : int;  (* span loss: ring wrap + per-root overflow *)
    flusher_queue_age_us : int;  (* age of the oldest un-committed ack *)
    ops : op_stat list;
    shards : shard_stat list;
    slow : string list;  (* JSONL slow-request log, oldest first *)
  }
end

type txn_op =
  | Tput of { key : string; data : string }
  | Tdelete of { key : string }
  | Ttag of { key : string; tag : string; value : string }
  | Tuntag of { key : string; tag : string; value : string }
  | Trename of { from_ : string; to_ : string }

type request =
  | Ping
  | Put of { key : string; data : string }
  | Get of { key : string }
  | Delete of { key : string }
  | Tag of { key : string; tag : string; value : string }
  | Search of { query : string }
  | Stat of { key : string }
  | Flush
  | Multi of { ops : txn_op list }
  | Stats  (* compact binary snapshot -> Ok_stats *)
  | Metrics  (* Prometheus text exposition -> Ok_data *)
  | Trace_dump  (* recent span ring as Chrome trace JSON -> Ok_data *)
  | Traced of { trace : int64; req : request }
      (* trace-context propagation: the caller's trace id rides a flag
         bit in the kind byte (0x80) plus a u64 payload prefix, so the
         server's spans stitch under the client's trace. Old peers never
         set the bit, so plain frames decode unchanged. *)

type response =
  | Ok_unit
  | Ok_oid of int64
  | Ok_data of string
  | Ok_hits of (int64 * float) list
  | Ok_stat of { oid : int64; size : int64 }
  | Ok_oids of int64 list
  | Ok_stats of Stats.t
  | Not_found
  | Busy
  | Err of string

let equal_request (a : request) (b : request) = a = b
let equal_response (a : response) (b : response) = a = b

let pp_txn_op fmt = function
  | Tput { key; data } ->
      Format.fprintf fmt "put %s (%d bytes)" key (String.length data)
  | Tdelete { key } -> Format.fprintf fmt "delete %s" key
  | Ttag { key; tag; value } -> Format.fprintf fmt "tag %s %s/%s" key tag value
  | Tuntag { key; tag; value } ->
      Format.fprintf fmt "untag %s %s/%s" key tag value
  | Trename { from_; to_ } -> Format.fprintf fmt "rename %s -> %s" from_ to_

let rec pp_request fmt = function
  | Ping -> Format.fprintf fmt "PING"
  | Put { key; data } -> Format.fprintf fmt "PUT %s (%d bytes)" key (String.length data)
  | Get { key } -> Format.fprintf fmt "GET %s" key
  | Delete { key } -> Format.fprintf fmt "DELETE %s" key
  | Tag { key; tag; value } -> Format.fprintf fmt "TAG %s %s/%s" key tag value
  | Search { query } -> Format.fprintf fmt "SEARCH %s" query
  | Stat { key } -> Format.fprintf fmt "STAT %s" key
  | Flush -> Format.fprintf fmt "FLUSH"
  | Multi { ops } -> Format.fprintf fmt "MULTI (%d ops)" (List.length ops)
  | Stats -> Format.fprintf fmt "STATS"
  | Metrics -> Format.fprintf fmt "METRICS"
  | Trace_dump -> Format.fprintf fmt "TRACE"
  | Traced { trace; req } ->
      Format.fprintf fmt "TRACED %Lx %a" trace pp_request req

let pp_response fmt = function
  | Ok_unit -> Format.fprintf fmt "OK"
  | Ok_oid oid -> Format.fprintf fmt "OK oid=%Ld" oid
  | Ok_data d -> Format.fprintf fmt "OK (%d bytes)" (String.length d)
  | Ok_hits hits -> Format.fprintf fmt "OK %d hit(s)" (List.length hits)
  | Ok_stat { oid; size } -> Format.fprintf fmt "OK oid=%Ld size=%Ld" oid size
  | Ok_oids oids -> Format.fprintf fmt "OK %d oid(s)" (List.length oids)
  | Ok_stats s ->
      Format.fprintf fmt "OK stats (%d req, %d op(s), %d shard(s))"
        s.Stats.requests (List.length s.Stats.ops)
        (List.length s.Stats.shards)
  | Not_found -> Format.fprintf fmt "NOT_FOUND"
  | Busy -> Format.fprintf fmt "BUSY"
  | Err msg -> Format.fprintf fmt "ERR %s" msg

(* --- encoding ----------------------------------------------------- *)

(* Inner strings carried with a u16 length prefix (keys, tags, values —
   short by construction); bulk data (content, query, error text) is
   the frame's trailing bytes, so it pays no second length. *)
let add_str16 b s =
  if String.length s > 0xFFFF then
    invalid_arg "Wire: string field exceeds 65535 bytes";
  Buffer.add_uint16_be b (String.length s);
  Buffer.add_string b s

(* MULTI carries several bulk payloads in one frame, so (unlike every
   other opcode) each op's data needs its own length — u32, since one
   object's content can exceed 64 KiB. The frame bound still applies. *)
let add_str32 b s =
  Buffer.add_int32_be b (Int32.of_int (String.length s));
  Buffer.add_string b s

(* Kind-byte bit 0x80 flags a traced frame: the payload starts with the
   u64 trace id, followed by the inner request's payload unchanged. *)
let traced_flag = 0x80

let rec request_kind = function
  | Ping -> 0
  | Put _ -> 1
  | Get _ -> 2
  | Delete _ -> 3
  | Tag _ -> 4
  | Search _ -> 5
  | Stat _ -> 6
  | Flush -> 7
  | Multi _ -> 8
  | Stats -> 9
  | Metrics -> 10
  | Trace_dump -> 11
  | Traced { req = Traced _; _ } -> invalid_arg "Wire: nested Traced"
  | Traced { req; _ } -> traced_flag lor request_kind req

let response_kind = function
  | Ok_unit -> 0
  | Ok_oid _ -> 1
  | Ok_data _ -> 2
  | Ok_hits _ -> 3
  | Ok_stat _ -> 4
  | Ok_oids _ -> 5
  | Ok_stats _ -> 6
  | Not_found -> 16
  | Busy -> 17
  | Err _ -> 18

let txn_op_kind = function
  | Tput _ -> 0
  | Tdelete _ -> 1
  | Ttag _ -> 2
  | Tuntag _ -> 3
  | Trename _ -> 4

let add_txn_op b op =
  Buffer.add_uint8 b (txn_op_kind op);
  match op with
  | Tput { key; data } ->
      add_str16 b key;
      add_str32 b data
  | Tdelete { key } -> add_str16 b key
  | Ttag { key; tag; value } | Tuntag { key; tag; value } ->
      add_str16 b key;
      add_str16 b tag;
      add_str16 b value
  | Trename { from_; to_ } ->
      add_str16 b from_;
      add_str16 b to_

let rec add_request_payload b = function
  | Ping | Flush | Stats | Metrics | Trace_dump -> ()
  | Put { key; data } ->
      add_str16 b key;
      Buffer.add_string b data
  | Get { key } | Delete { key } | Stat { key } -> add_str16 b key
  | Tag { key; tag; value } ->
      add_str16 b key;
      add_str16 b tag;
      add_str16 b value
  | Search { query } -> Buffer.add_string b query
  | Multi { ops } ->
      if List.length ops > 0xFFFF then
        invalid_arg "Wire: MULTI exceeds 65535 ops";
      Buffer.add_uint16_be b (List.length ops);
      List.iter (add_txn_op b) ops
  | Traced { trace; req } ->
      Buffer.add_int64_be b trace;
      add_request_payload b req

(* u64 on the wire for anything that counts: OCaml ints are 63-bit, so
   a u32 would wrap on a long-lived server's request counter. *)
let add_u64i b v = Buffer.add_int64_be b (Int64.of_int v)

let add_stats b (s : Stats.t) =
  add_u64i b s.uptime_us;
  Buffer.add_int32_be b (Int32.of_int s.connections);
  Buffer.add_int32_be b (Int32.of_int s.inflight);
  add_u64i b s.requests;
  add_u64i b s.busy;
  add_u64i b s.errors;
  add_u64i b s.batches;
  add_u64i b s.batch_ops;
  add_u64i b s.bytes_in;
  add_u64i b s.bytes_out;
  add_u64i b s.trace_spans;
  add_u64i b s.trace_dropped;
  add_u64i b s.flusher_queue_age_us;
  Buffer.add_uint16_be b (List.length s.ops);
  List.iter
    (fun (o : Stats.op_stat) ->
      add_str16 b o.op;
      add_u64i b o.count;
      add_u64i b o.sum_us;
      add_u64i b o.p50_us;
      add_u64i b o.p90_us;
      add_u64i b o.p99_us)
    s.ops;
  Buffer.add_uint16_be b (List.length s.shards);
  List.iter
    (fun (sh : Stats.shard_stat) ->
      Buffer.add_uint16_be b sh.shard;
      add_u64i b sh.checkpoints;
      Buffer.add_int32_be b (Int32.of_int sh.journal_capacity_pages);
      Buffer.add_int32_be b (Int32.of_int sh.dirty_pages);
      Buffer.add_int32_be b (Int32.of_int sh.resident_pages);
      Buffer.add_int32_be b (Int32.of_int sh.cache_pages);
      Buffer.add_int32_be b (Int32.of_int sh.backlog))
    s.shards;
  Buffer.add_uint16_be b (List.length s.slow);
  List.iter (add_str16 b) s.slow

let add_response_payload b = function
  | Ok_unit | Not_found | Busy -> ()
  | Ok_oid oid -> Buffer.add_int64_be b oid
  | Ok_data d -> Buffer.add_string b d
  | Ok_hits hits ->
      Buffer.add_int32_be b (Int32.of_int (List.length hits));
      List.iter
        (fun (oid, score) ->
          Buffer.add_int64_be b oid;
          Buffer.add_int64_be b (Int64.bits_of_float score))
        hits
  | Ok_stat { oid; size } ->
      Buffer.add_int64_be b oid;
      Buffer.add_int64_be b size
  | Ok_oids oids ->
      Buffer.add_int32_be b (Int32.of_int (List.length oids));
      List.iter (Buffer.add_int64_be b) oids
  | Ok_stats s -> add_stats b s
  | Err msg -> Buffer.add_string b msg

let encode ~id ~kind add_payload msg =
  let payload = Buffer.create 64 in
  add_payload payload msg;
  let len = 5 + Buffer.length payload in
  if len > max_frame_bytes then invalid_arg "Wire: frame exceeds max_frame_bytes";
  let b = Buffer.create (4 + len) in
  Buffer.add_int32_be b (Int32.of_int len);
  Buffer.add_int32_be b (Int32.of_int id);
  Buffer.add_uint8 b kind;
  Buffer.add_buffer b payload;
  Buffer.contents b

let encode_request ~id req =
  encode ~id ~kind:(request_kind req) add_request_payload req

let encode_response ~id resp =
  encode ~id ~kind:(response_kind resp) add_response_payload resp

(* --- decoding ----------------------------------------------------- *)

(* A tiny cursor over one payload; every reader checks bounds and the
   top-level decoder checks the cursor finished exactly at the end. *)
exception Short

let u16 s pos =
  if !pos + 2 > String.length s then raise Short;
  let v = String.get_uint16_be s !pos in
  pos := !pos + 2;
  v

let u32 s pos =
  if !pos + 4 > String.length s then raise Short;
  let v = Int32.to_int (String.get_int32_be s !pos) land 0xFFFFFFFF in
  pos := !pos + 4;
  v

let u64 s pos =
  if !pos + 8 > String.length s then raise Short;
  let v = String.get_int64_be s !pos in
  pos := !pos + 8;
  v

let str16 s pos =
  let n = u16 s pos in
  if !pos + n > String.length s then raise Short;
  let v = String.sub s !pos n in
  pos := !pos + n;
  v

let str32 s pos =
  let n = u32 s pos in
  if !pos + n > String.length s then raise Short;
  let v = String.sub s !pos n in
  pos := !pos + n;
  v

let rest s pos =
  let v = String.sub s !pos (String.length s - !pos) in
  pos := String.length s;
  v

let exactly_consumed s pos decoded =
  if !pos = String.length s then Ok decoded
  else Error "trailing bytes after payload"

(* Counters ride u64 on the wire but live as OCaml ints in the snapshot
   record; a server can't produce a value past 2^62 in any realistic
   uptime, so truncation is a theoretical concern only. *)
let u64i s pos = Int64.to_int (u64 s pos)

let rec decode_request kind payload =
  let pos = ref 0 in
  let fin v = exactly_consumed payload pos v in
  try
    if kind land traced_flag <> 0 then begin
      let trace = u64 payload pos in
      let inner = rest payload pos in
      match decode_request (kind land lnot traced_flag) inner with
      | Ok req -> Ok (Traced { trace; req })
      | Error _ as e -> e
    end
    else
    match kind with
    | 0 -> fin Ping
    | 1 ->
        let key = str16 payload pos in
        fin (Put { key; data = rest payload pos })
    | 2 -> fin (Get { key = str16 payload pos })
    | 3 -> fin (Delete { key = str16 payload pos })
    | 4 ->
        let key = str16 payload pos in
        let tag = str16 payload pos in
        fin (Tag { key; tag; value = str16 payload pos })
    | 5 -> fin (Search { query = rest payload pos })
    | 6 -> fin (Stat { key = str16 payload pos })
    | 7 -> fin Flush
    | 8 ->
        let n = u16 payload pos in
        let exception Bad_op of string in
        let op () =
          let kb =
            if !pos + 1 > String.length payload then raise Short
            else begin
              let k = Char.code payload.[!pos] in
              incr pos;
              k
            end
          in
          match kb with
          | 0 ->
              let key = str16 payload pos in
              Tput { key; data = str32 payload pos }
          | 1 -> Tdelete { key = str16 payload pos }
          | 2 ->
              let key = str16 payload pos in
              let tag = str16 payload pos in
              Ttag { key; tag; value = str16 payload pos }
          | 3 ->
              let key = str16 payload pos in
              let tag = str16 payload pos in
              Tuntag { key; tag; value = str16 payload pos }
          | 4 ->
              let from_ = str16 payload pos in
              Trename { from_; to_ = str16 payload pos }
          | k -> raise (Bad_op (Printf.sprintf "unknown MULTI op %d" k))
        in
        (try fin (Multi { ops = List.init n (fun _ -> op ()) })
         with Bad_op msg -> Error msg)
    | 9 -> fin Stats
    | 10 -> fin Metrics
    | 11 -> fin Trace_dump
    | k -> Error (Printf.sprintf "unknown request opcode %d" k)
  with Short -> Error "truncated request payload"

let decode_response kind payload =
  let pos = ref 0 in
  let fin v = exactly_consumed payload pos v in
  try
    match kind with
    | 0 -> fin Ok_unit
    | 1 -> fin (Ok_oid (u64 payload pos))
    | 2 -> fin (Ok_data (rest payload pos))
    | 3 ->
        let n = u32 payload pos in
        if String.length payload - !pos <> n * 16 then
          Error "hit count disagrees with payload length"
        else
          fin
            (Ok_hits
               (List.init n (fun _ ->
                    let oid = u64 payload pos in
                    (oid, Int64.float_of_bits (u64 payload pos)))))
    | 4 ->
        let oid = u64 payload pos in
        fin (Ok_stat { oid; size = u64 payload pos })
    | 5 ->
        let n = u32 payload pos in
        if String.length payload - !pos <> n * 8 then
          Error "oid count disagrees with payload length"
        else fin (Ok_oids (List.init n (fun _ -> u64 payload pos)))
    | 6 ->
        let uptime_us = u64i payload pos in
        let connections = u32 payload pos in
        let inflight = u32 payload pos in
        let requests = u64i payload pos in
        let busy = u64i payload pos in
        let errors = u64i payload pos in
        let batches = u64i payload pos in
        let batch_ops = u64i payload pos in
        let bytes_in = u64i payload pos in
        let bytes_out = u64i payload pos in
        let trace_spans = u64i payload pos in
        let trace_dropped = u64i payload pos in
        let flusher_queue_age_us = u64i payload pos in
        let n_ops = u16 payload pos in
        let ops =
          List.init n_ops (fun _ : Stats.op_stat ->
              let op = str16 payload pos in
              let count = u64i payload pos in
              let sum_us = u64i payload pos in
              let p50_us = u64i payload pos in
              let p90_us = u64i payload pos in
              { op; count; sum_us; p50_us; p90_us; p99_us = u64i payload pos })
        in
        let n_shards = u16 payload pos in
        let shards =
          List.init n_shards (fun _ : Stats.shard_stat ->
              let shard = u16 payload pos in
              let checkpoints = u64i payload pos in
              let journal_capacity_pages = u32 payload pos in
              let dirty_pages = u32 payload pos in
              let resident_pages = u32 payload pos in
              let cache_pages = u32 payload pos in
              {
                shard;
                checkpoints;
                journal_capacity_pages;
                dirty_pages;
                resident_pages;
                cache_pages;
                backlog = u32 payload pos;
              })
        in
        let n_slow = u16 payload pos in
        let slow = List.init n_slow (fun _ -> str16 payload pos) in
        fin
          (Ok_stats
             {
               uptime_us;
               connections;
               inflight;
               requests;
               busy;
               errors;
               batches;
               batch_ops;
               bytes_in;
               bytes_out;
               trace_spans;
               trace_dropped;
               flusher_queue_age_us;
               ops;
               shards;
               slow;
             })
    | 16 -> fin Not_found
    | 17 -> fin Busy
    | 18 -> fin (Err (rest payload pos))
    | k -> Error (Printf.sprintf "unknown response status %d" k)
  with Short -> Error "truncated response payload"

(* --- stream decoder ------------------------------------------------ *)

module Stream = struct
  type 'msg item =
    | Frame of int * 'msg
    | Awaiting
    | Bad of { id : int option; reason : string }

  type 'msg t = {
    decode : int -> string -> ('msg, string) result;
    mutable data : string;  (* data[pos ..] is the unconsumed input *)
    mutable pos : int;
    mutable poison : 'msg item option;  (* sticky Bad *)
  }

  let make decode = { decode; data = ""; pos = 0; poison = None }
  let requests () = make decode_request
  let responses () = make decode_response
  let buffered t = String.length t.data - t.pos

  let feed t buf n =
    if n > 0 then begin
      let b = Buffer.create (buffered t + n) in
      Buffer.add_substring b t.data t.pos (buffered t);
      Buffer.add_subbytes b buf 0 n;
      t.data <- Buffer.contents b;
      t.pos <- 0
    end

  let feed_string t s = feed t (Bytes.unsafe_of_string s) (String.length s)

  let poison t id reason =
    let item = Bad { id; reason } in
    t.poison <- Some item;
    (* Nothing fed after a poisoned frame can be trusted: drop it. *)
    t.data <- "";
    t.pos <- 0;
    item

  let next t =
    match t.poison with
    | Some item -> item
    | None ->
        let avail = buffered t in
        if avail < 4 then Awaiting
        else
          let len =
            Int32.to_int (String.get_int32_be t.data t.pos) land 0xFFFFFFFF
          in
          if len < 5 then poison t None (Printf.sprintf "frame length %d < 5" len)
          else if len > max_frame_bytes then
            poison t None
              (Printf.sprintf "frame length %d exceeds the %d-byte bound" len
                 max_frame_bytes)
          else if avail < 4 + len then Awaiting
          else begin
            let id =
              Int32.to_int (String.get_int32_be t.data (t.pos + 4))
              land 0xFFFFFFFF
            in
            let kind = Char.code t.data.[t.pos + 8] in
            let payload = String.sub t.data (t.pos + 9) (len - 5) in
            t.pos <- t.pos + 4 + len;
            if t.pos = String.length t.data then begin
              t.data <- "";
              t.pos <- 0
            end;
            match t.decode kind payload with
            | Ok msg -> Frame (id, msg)
            | Error reason -> poison t (Some id) reason
          end
end
