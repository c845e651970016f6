(* The network front door. See server.mli for the contract.

   Shape: one accept domain, a fixed pool of worker domains, all
   nonblocking fds multiplexed with select. The load-bearing decision
   is in the worker loop: mutations are ACKNOWLEDGED into the write
   pipeline as they arrive but their replies are parked, and one
   [Fs.sync] at the end of the iteration releases every parked reply at
   once — the group commit's fixed cost is paid per batch, not per
   request. Every mutating verb runs as a plan through [Fs.with_txn],
   so no reader sees half of one. Everything else (bounded inflight ->
   BUSY, poisoned frame -> ERR + close) exists so a slow or hostile
   client costs the server a constant amount of memory. *)

module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module Oid = Hfad_osd.Oid
module Trace = Hfad_trace.Trace
module Registry = Hfad_metrics.Registry
module Counter = Hfad_metrics.Counter
module Prefix_pool = Hfad_metrics.Prefix_pool
module Histogram = Hfad_metrics.Histogram
module Prometheus = Hfad_metrics.Prometheus
module Osd = Hfad_osd.Osd
module Wakeup = Hfad_util.Wakeup
module Pager = Hfad_pager.Pager

module Config = struct
  type t = {
    workers : int;
    max_inflight : int;
    sync_ack : bool;
    read_bytes : int;
    slow_threshold_us : int;
  }

  let default =
    {
      workers = 2;
      max_inflight = 64;
      sync_ack = false;
      read_bytes = 64 * 1024;
      slow_threshold_us = 0;
    }

  let v ?(workers = default.workers) ?(max_inflight = default.max_inflight)
      ?(sync_ack = default.sync_ack) ?(read_bytes = default.read_bytes)
      ?(slow_threshold_us = default.slow_threshold_us) () =
    if workers < 1 then invalid_arg "Server.Config: workers < 1";
    if max_inflight < 1 then invalid_arg "Server.Config: max_inflight < 1";
    if read_bytes < 1 then invalid_arg "Server.Config: read_bytes < 1";
    if slow_threshold_us < 0 then
      invalid_arg "Server.Config: slow_threshold_us < 0";
    { workers; max_inflight; sync_ack; read_bytes; slow_threshold_us }
end

type counters = {
  accepted : Counter.t;
  connections : Counter.t;  (* gauge *)
  requests : Counter.t;
  inflight : Counter.t;  (* gauge *)
  busy : Counter.t;
  batches : Counter.t;
  batch_ops : Counter.t;
  errors : Counter.t;
  bytes_in : Counter.t;
  bytes_out : Counter.t;
}

(* Per-op server latency histograms, observed around [execute]. Global
   rather than pooled per instance: every server in the process observes
   into the same [server.latency_us.<op>] families (which is what a
   scraper wants), and creating them once at module init keeps the
   registry's size stable across server start/stop cycles. [Flush] is
   measured as "sync" — its execute is the client-visible fsync. *)
let op_histograms =
  List.map
    (fun op -> (op, Histogram.make ("server.latency_us." ^ op)))
    [ "put"; "get"; "delete"; "tag"; "search"; "stat"; "multi"; "sync" ]

let rec op_label = function
  | Wire.Ping -> "ping"
  | Wire.Put _ -> "put"
  | Wire.Get _ -> "get"
  | Wire.Delete _ -> "delete"
  | Wire.Tag _ -> "tag"
  | Wire.Search _ -> "search"
  | Wire.Stat _ -> "stat"
  | Wire.Flush -> "sync"
  | Wire.Multi _ -> "multi"
  | Wire.Stats -> "stats"
  | Wire.Metrics -> "metrics"
  | Wire.Trace_dump -> "trace"
  | Wire.Traced { req; _ } -> op_label req

(* Bounds on what one observability reply may carry: the span ring at
   full default capacity (64k spans) serializes near the 16 MiB frame
   bound, and the slow log must stay a constant-memory ring. *)
let trace_dump_max_spans = 16384
let slow_capacity = 64
let slow_line_max = 512

type conn = {
  fd : Unix.file_descr;
  cid : int;
  stream : Wire.request Wire.Stream.t;
  out : Buffer.t;  (* replies not yet moved to [sending] *)
  mutable sending : string;  (* sending[sent ..] is being written *)
  mutable sent : int;
  mutable inflight : int;
  mutable alive : bool;
  mutable draining : bool;
      (* poisoned stream: flush the ERR reply, then close; read no more *)
}

type worker = {
  widx : int;
  wakeup : Wakeup.t;
  mu : Mutex.t;
  incoming : Unix.file_descr Queue.t;  (* under [mu] *)
  mutable conns : conn list;
  mutable domain : unit Domain.t option;
}

type t = {
  fs : Fs.t;
  config : Config.t;
  listen_fd : Unix.file_descr;
  port_ : int;
  workers : worker array;
  shutdown : bool Atomic.t;
  mutable accept_domain : unit Domain.t option;
  prefix : string;
  c : counters;
  started_at : float;
  slow_mu : Mutex.t;
  slow : string Queue.t;  (* JSONL slow-request ring, under [slow_mu] *)
  stop_mu : Mutex.t;
  mutable stopped : bool;
}

(* --- small plumbing ----------------------------------------------- *)

let close_conn t c =
  if c.alive then begin
    c.alive <- false;
    Counter.add t.c.connections (-1);
    Counter.add t.c.inflight (-c.inflight);
    c.inflight <- 0;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let has_output c = c.sent < String.length c.sending || Buffer.length c.out > 0

(* Push buffered output; EAGAIN leaves the rest for the next select
   round, a dead peer closes the connection. Replies move from [out] to
   [sending] only once [sending] is drained, and partial writes advance
   [sent] across calls, so each byte is copied once however slowly the
   peer reads (a 16 MiB TRACE reply stays linear). *)
let flush_out t c =
  let continue = ref true in
  while !continue && c.alive && has_output c do
    if c.sent = String.length c.sending then begin
      c.sending <- Buffer.contents c.out;
      c.sent <- 0;
      (* Back to the initial storage, so a big reply is held once. *)
      Buffer.reset c.out
    end;
    match
      Unix.write_substring c.fd c.sending c.sent
        (String.length c.sending - c.sent)
    with
    | 0 -> continue := false
    | n ->
        c.sent <- c.sent + n;
        Counter.add t.c.bytes_out n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        close_conn t c
  done;
  if c.alive && c.draining && not (has_output c) then close_conn t c

let respond t c ~id resp =
  if c.alive then begin
    Buffer.add_string c.out (Wire.encode_response ~id resp);
    flush_out t c
  end

let finish_request t c =
  c.inflight <- c.inflight - 1;
  Counter.add t.c.inflight (-1)

(* --- request execution -------------------------------------------- *)

let key_name key = (Tag.Udef, key)
let err_of t e = Counter.incr t.c.errors; Wire.Err (Fs.error_message e)

let err_msg t msg = Counter.incr t.c.errors; Wire.Err msg

(* A plan step named a key with no object behind it: the request
   answers NOT_FOUND, nothing applied (raising aborts the txn). *)
exception No_such_key

(* A plan step's tag did not parse: the request answers ERR with the
   parser's message, nothing applied. *)
exception Bad_tag of string

let parse_tag tag =
  try Tag.of_string tag with Invalid_argument msg -> raise (Bad_tag msg)

(* Stage one plan step into the transaction. Returns the OID a Tput
   touched (the reply lists them in plan order).

   Staging reads live state, but earlier steps of the same plan are not
   live yet, so [staged] overlays the plan's own key bindings: [Some oid]
   for a key the plan created or renamed-to, [None] for one it deleted or
   renamed away. Later steps therefore see earlier steps' effects. The
   key is resolved before the tag is parsed, so a missing key answers
   NOT_FOUND whatever its tag. *)
let stage_txn_op t tx staged op =
  let lookup key =
    match Hashtbl.find_opt staged key with
    | Some binding -> binding
    | None -> Fs.lookup_one t.fs [ key_name key ]
  in
  let found key = match lookup key with
    | Some oid -> oid
    | None -> raise No_such_key
  in
  match op with
  | Wire.Tput { key; data } -> (
      match lookup key with
      | Some oid ->
          Fs.Txn.truncate tx oid 0;
          if data <> "" then Fs.Txn.write tx oid ~off:0 data;
          Some oid
      | None ->
          let oid = Fs.Txn.create tx ~names:[ key_name key ] ~content:data in
          Hashtbl.replace staged key (Some oid);
          Some oid)
  | Wire.Tdelete { key } ->
      Fs.Txn.delete tx (found key);
      Hashtbl.replace staged key None;
      None
  | Wire.Ttag { key; tag; value } ->
      let oid = found key in
      Fs.Txn.name tx oid (parse_tag tag) value;
      None
  | Wire.Tuntag { key; tag; value } ->
      let oid = found key in
      Fs.Txn.unname tx oid (parse_tag tag) value;
      None
  | Wire.Trename { from_; to_ } ->
      let oid = found from_ in
      Fs.Txn.rename tx oid Tag.Udef ~from_ ~to_;
      Hashtbl.replace staged from_ None;
      Hashtbl.replace staged to_ (Some oid);
      None

(* --- observability ------------------------------------------------- *)

let record_slow t ~cid ~op ~dur_us ~trace =
  let line =
    Printf.sprintf "{\"ts_us\":%.0f,\"conn\":%d,\"op\":\"%s\",\"dur_us\":%d%s}"
      (Unix.gettimeofday () *. 1e6)
      cid op dur_us
      (match trace with
      | None -> ""
      | Some tr -> Printf.sprintf ",\"trace_id\":\"%Lx\"" tr)
  in
  let line =
    if String.length line <= slow_line_max then line
    else String.sub line 0 slow_line_max
  in
  Mutex.lock t.slow_mu;
  if Queue.length t.slow >= slow_capacity then ignore (Queue.pop t.slow);
  Queue.add line t.slow;
  Mutex.unlock t.slow_mu

(* The one stats snapshot: the STATS verb sends it, [Server.stats]
   returns it in process. *)
let stats t : Wire.Stats.t =
  let g c = Counter.get c in
  (* Registry counters are create-or-get, so reading a gauge another
     library owns (flusher, trace) needs no new plumbing. *)
  let gauge name = Counter.get (Registry.counter Registry.global name) in
  let ops =
    List.map
      (fun (op, h) ->
        let s = Histogram.snapshot h in
        {
          Wire.Stats.op;
          count = s.Histogram.count;
          sum_us = s.Histogram.sum;
          p50_us = s.Histogram.p50;
          p90_us = s.Histogram.p90;
          p99_us = s.Histogram.p99;
        })
      op_histograms
  in
  let cache_pages = (Fs.config t.fs).Fs.Config.cache_pages in
  let shards =
    List.init (Fs.shard_count t.fs) (fun i ->
        let osd = Fs.osd_of_shard t.fs i in
        let pager = Osd.pager osd in
        let occ = Pager.occupancy pager in
        {
          Wire.Stats.shard = i;
          checkpoints = Int64.to_int (Osd.journal_sequence osd);
          journal_capacity_pages = Osd.journal_capacity_pages osd;
          dirty_pages = Pager.dirty_count pager;
          resident_pages = occ.Pager.a1in + occ.Pager.am;
          cache_pages;
        })
  in
  let slow =
    Mutex.lock t.slow_mu;
    let l = List.of_seq (Queue.to_seq t.slow) in
    Mutex.unlock t.slow_mu;
    l
  in
  {
    Wire.Stats.uptime_us =
      int_of_float ((Unix.gettimeofday () -. t.started_at) *. 1e6);
    connections = g t.c.connections;
    inflight = g t.c.inflight;
    requests = g t.c.requests;
    busy = g t.c.busy;
    errors = g t.c.errors;
    batches = g t.c.batches;
    batch_ops = g t.c.batch_ops;
    bytes_in = g t.c.bytes_in;
    bytes_out = g t.c.bytes_out;
    trace_spans = gauge "trace.spans";
    trace_dropped = Trace.dropped ();
    flusher_queue_age_us = gauge "flusher.queue_age_us";
    ops;
    shards;
    slow;
  }

(* Reads reply now; mutations reply [`Defer resp] — the response to
   send once a barrier covers the acknowledged mutation.

   Every mutating verb is a plan for the one [Fs.with_txn] below: PUT,
   DELETE and TAG are one-step plans, MULTI is many. The whole plan
   applies under one exclusive section (no reader sees a prefix of it)
   and seals in one journal commit; [reply] turns the OIDs its Tput
   steps touched into the verb's answer. *)
let rec execute t (req : Wire.request) :
    [ `Reply of Wire.response | `Defer of Wire.response ] =
  let lookup key = Fs.lookup_one t.fs [ key_name key ] in
  let commit ops reply =
    match
      Fs.with_txn t.fs (fun tx ->
          let staged = Hashtbl.create 8 in
          List.map (stage_txn_op t tx staged) ops)
    with
    | Ok touched ->
        `Defer (reply (List.filter_map (Option.map Oid.to_int64) touched))
    | Error e -> `Reply (err_of t e)
  in
  try
    match req with
    | Wire.Ping -> `Reply Wire.Ok_unit
    | Wire.Get { key } -> (
        match lookup key with
        | None -> `Reply Wire.Not_found
        | Some oid -> `Reply (Wire.Ok_data (Fs.read_all t.fs oid)))
    | Wire.Search { query } ->
        let hits =
          List.map
            (fun (oid, score) -> (Oid.to_int64 oid, score))
            (Fs.search t.fs query)
        in
        `Reply (Wire.Ok_hits hits)
    | Wire.Stat { key } -> (
        match lookup key with
        | None -> `Reply Wire.Not_found
        | Some oid ->
            `Reply
              (Wire.Ok_stat
                 {
                   oid = Oid.to_int64 oid;
                   size = Int64.of_int (Fs.size t.fs oid);
                 }))
    | Wire.Put { key; data } ->
        commit [ Wire.Tput { key; data } ] (fun oids ->
            Wire.Ok_oid (List.hd oids))
    | Wire.Delete { key } ->
        commit [ Wire.Tdelete { key } ] (fun _ -> Wire.Ok_unit)
    | Wire.Tag { key; tag; value } ->
        commit [ Wire.Ttag { key; tag; value } ] (fun _ -> Wire.Ok_unit)
    | Wire.Multi { ops } -> commit ops (fun oids -> Wire.Ok_oids oids)
    | Wire.Flush ->
        (* No mutation of its own: the reply just rides the next
           barrier, which is exactly the fsync the client asked for. *)
        `Defer Wire.Ok_unit
    | Wire.Stats -> `Reply (Wire.Ok_stats (stats t))
    | Wire.Metrics ->
        (* The whole process, not just this server: shard<i>.*, pager,
           journal, flusher and trace families all ride along. *)
        `Reply (Wire.Ok_data (Prometheus.expose ()))
    | Wire.Trace_dump ->
        let spans = Trace.spans () in
        let n = List.length spans in
        let spans =
          if n <= trace_dump_max_spans then spans
          else List.filteri (fun i _ -> i >= n - trace_dump_max_spans) spans
        in
        `Reply (Wire.Ok_data (Trace.to_chrome_json spans))
    | Wire.Traced { req; _ } ->
        (* Normally unwrapped in [handle_frames] (so the trace id tags
           the span); executing the inner request keeps [execute] total. *)
        execute t req
  with
  | Hfad_osd.Osd.No_such_object _ | No_such_key -> `Reply Wire.Not_found
  | Bad_tag msg -> `Reply (err_msg t msg)
  | Hfad_index.Index_store.Unsupported_tag tag ->
      `Reply
        (err_msg t (Format.asprintf "tag %a is not assignable" Tag.pp tag))
  | exn -> `Reply (err_msg t (Printexc.to_string exn))

(* Release one batch: a single barrier acks every parked reply. *)
let release_batch t pending =
  match pending with
  | [] -> ()
  | acks ->
      Trace.with_span ~layer:"server" ~op:"batch" (fun () ->
          if Trace.enabled () then
            Trace.add_attr_int "ops" (List.length acks);
          let result = Fs.sync t.fs in
          Counter.incr t.c.batches;
          Counter.add t.c.batch_ops (List.length acks);
          List.iter
            (fun (c, id, resp) ->
              let final =
                match result with Ok () -> resp | Error e -> err_of t e
              in
              respond t c ~id final;
              (* A connection that died mid-batch already returned its
                 whole inflight budget in [close_conn]. *)
              if c.inflight > 0 then finish_request t c)
            (List.rev acks))

(* --- the worker loop ----------------------------------------------- *)

let handle_frames t ~pending c =
  let rec go () =
    if c.alive && not c.draining then
      match Wire.Stream.next c.stream with
      | Wire.Stream.Awaiting -> ()
      | Wire.Stream.Bad { id; reason } ->
          (* Framing is gone: answer what we can and drain out. *)
          respond t c ~id:(Option.value ~default:0 id)
            (err_msg t ("malformed frame: " ^ reason));
          c.draining <- true;
          if not (has_output c) then close_conn t c
      | Wire.Stream.Frame (id, req) ->
          (if c.inflight >= t.config.max_inflight then begin
             Counter.incr t.c.busy;
             respond t c ~id Wire.Busy
           end
           else begin
             c.inflight <- c.inflight + 1;
             Counter.add t.c.inflight 1;
             Counter.incr t.c.requests;
             (* Unwrap trace context here, not in [execute], so the id
                lands on the [server.request] span and the slow log. *)
             let trace_id, req =
               match req with
               | Wire.Traced { trace; req } -> (Some trace, req)
               | req -> (None, req)
             in
             let started = Unix.gettimeofday () in
             let outcome =
               Trace.with_span ~layer:"server" ~op:"request" (fun () ->
                   if Trace.enabled () then begin
                     Trace.add_attr "op"
                       (Format.asprintf "%a" Wire.pp_request req);
                     Trace.add_attr_int "conn" c.cid;
                     Option.iter
                       (fun tr ->
                         Trace.add_attr "trace_id" (Printf.sprintf "%Lx" tr))
                       trace_id
                   end;
                   execute t req)
             in
             let dur_us =
               int_of_float ((Unix.gettimeofday () -. started) *. 1e6)
             in
             let op = op_label req in
             (match List.assoc_opt op op_histograms with
             | Some h -> Histogram.observe h dur_us
             | None -> ());
             if
               t.config.slow_threshold_us > 0
               && dur_us >= t.config.slow_threshold_us
             then record_slow t ~cid:c.cid ~op ~dur_us ~trace:trace_id;
             match outcome with
             | `Reply resp ->
                 respond t c ~id resp;
                 finish_request t c
             | `Defer resp ->
                 (* [sync_ack] is per-request durability, a batch of one:
                    the baseline configuration S1 measures group commit
                    against. *)
                 if t.config.sync_ack then release_batch t [ (c, id, resp) ]
                 else pending := (c, id, resp) :: !pending
           end);
          go ()
  in
  go ()

let handle_readable t ~pending buf c =
  if c.alive && not c.draining then
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> close_conn t c
    | n ->
        Counter.add t.c.bytes_in n;
        Wire.Stream.feed c.stream buf n;
        handle_frames t ~pending c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn t c

let adopt w =
  let adopted =
    Mutex.lock w.mu;
    let fds = List.of_seq (Queue.to_seq w.incoming) in
    Queue.clear w.incoming;
    Mutex.unlock w.mu;
    fds
  in
  List.iter
    (fun fd ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let c =
        {
          fd;
          cid = (w.widx lsl 20) lor (List.length w.conns);
          stream = Wire.Stream.requests ();
          out = Buffer.create 512;
          sending = "";
          sent = 0;
          inflight = 0;
          alive = true;
          draining = false;
        }
      in
      w.conns <- c :: w.conns)
    adopted

let worker_loop t w =
  let buf = Bytes.create t.config.read_bytes in
  let pending = ref [] in
  while not (Atomic.get t.shutdown) do
    let live = List.filter (fun c -> c.alive) w.conns in
    w.conns <- live;
    let read_fds =
      Wakeup.fd w.wakeup
      :: List.filter_map
           (fun c -> if c.draining then None else Some c.fd)
           live
    in
    let write_fds =
      List.filter_map
        (fun c -> if has_output c then Some c.fd else None)
        live
    in
    match Unix.select read_fds write_fds [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        (* A peer died between the filter and the select: reap on the
           next pass (read/write on it will raise and close cleanly). *)
        List.iter
          (fun c ->
            match Unix.fstat c.fd with
            | _ -> ()
            | exception Unix.Unix_error _ -> close_conn t c)
          live
    | readable, writable, _ ->
        if List.memq (Wakeup.fd w.wakeup) readable then begin
          Wakeup.drain w.wakeup;
          adopt w
        end;
        if not (Atomic.get t.shutdown) then begin
          List.iter
            (fun c -> if List.memq c.fd readable then handle_readable t ~pending buf c)
            w.conns;
          release_batch t !pending;
          pending := [];
          List.iter
            (fun c ->
              if List.memq c.fd writable || has_output c then flush_out t c)
            w.conns
        end
  done;
  (* Shutdown: nothing is parked (batches release inside the loop);
     push out whatever is buffered and close. *)
  release_batch t !pending;
  List.iter
    (fun c ->
      flush_out t c;
      close_conn t c)
    w.conns;
  w.conns <- []

(* --- accept domain -------------------------------------------------- *)

let accept_loop t =
  let rr = ref 0 in
  let continue = ref true in
  while !continue && not (Atomic.get t.shutdown) do
    match Unix.select [ t.listen_fd ] [] [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> continue := false
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _addr ->
            Trace.event ~layer:"server" ~op:"accept" ();
            Counter.incr t.c.accepted;
            Counter.add t.c.connections 1;
            let w = t.workers.(!rr mod Array.length t.workers) in
            incr rr;
            Mutex.lock w.mu;
            Queue.add fd w.incoming;
            Mutex.unlock w.mu;
            Wakeup.signal w.wakeup
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> continue := false
        | exception Unix.Unix_error (Unix.EINVAL, _, _) -> continue := false)
  done

(* --- lifecycle ------------------------------------------------------ *)

let make_counters prefix : counters =
  let c name = Registry.counter Registry.global (prefix ^ "." ^ name) in
  {
    accepted = c "accepted";
    connections = c "connections";
    requests = c "requests";
    inflight = c "inflight";
    busy = c "busy";
    batches = c "batches";
    batch_ops = c "batch_ops";
    errors = c "errors";
    bytes_in = c "bytes_in";
    bytes_out = c "bytes_out";
  }

let start ?(config = Config.default) ?(port = 0) fs =
  (* A peer that resets its connection between two of our sequential
     writes would otherwise deliver SIGPIPE, whose default action kills
     the whole process silently. Ignore it once, process-wide: every
     write site here already handles the EPIPE that surfaces instead.
     (No-op where the signal does not exist.) *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen listen_fd 128;
      Unix.set_nonblock listen_fd;
      let port_ =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      let prefix = Prefix_pool.acquire "server" in
      let workers =
        Array.init config.Config.workers (fun widx ->
            {
              widx;
              wakeup = Wakeup.create ();
              mu = Mutex.create ();
              incoming = Queue.create ();
              conns = [];
              domain = None;
            })
      in
      {
        fs;
        config;
        listen_fd;
        port_;
        workers;
        shutdown = Atomic.make false;
        accept_domain = None;
        prefix;
        c = make_counters prefix;
        started_at = Unix.gettimeofday ();
        slow_mu = Mutex.create ();
        slow = Queue.create ();
        stop_mu = Mutex.create ();
        stopped = false;
      }
    with exn ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise exn
  in
  (* Group commit is what batching amortizes into; a no-op when already
     running or when the Fs is configured for per-op durability. *)
  Fs.start_pipeline fs;
  Array.iter
    (fun w -> w.domain <- Some (Domain.spawn (fun () -> worker_loop t w)))
    t.workers;
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let port t = t.port_
let running t = not t.stopped
let metrics_prefix t = t.prefix

let stop t =
  Mutex.lock t.stop_mu;
  let first = not t.stopped in
  t.stopped <- true;
  Mutex.unlock t.stop_mu;
  if first then begin
    Atomic.set t.shutdown true;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Array.iter (fun w -> Wakeup.signal w.wakeup) t.workers;
    Option.iter Domain.join t.accept_domain;
    t.accept_domain <- None;
    Array.iter
      (fun w ->
        Option.iter Domain.join w.domain;
        w.domain <- None;
        Wakeup.close w.wakeup)
      t.workers;
    Prefix_pool.release t.prefix
  end
