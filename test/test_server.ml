(* The network front door: wire-codec properties (encode/decode are
   inverses under arbitrary chunking), malformed/truncated/oversized
   frame rejection that never wedges a worker, op semantics over a real
   TCP roundtrip, BUSY backpressure under a one-write burst, a 4-domain
   many-client stress test asserting no lost acks, and the metrics
   prefix-pool audit every per-instance layer gets. *)

module Device = Hfad_blockdev.Device
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module Oid = Hfad_osd.Oid
module Server = Hfad_server.Server
module Client = Hfad_server.Client
module Wire = Hfad_server.Wire
module Registry = Hfad_metrics.Registry
module Counter = Hfad_metrics.Counter
module Prefix_pool = Hfad_metrics.Prefix_pool
module Prometheus = Hfad_metrics.Prometheus
module Trace = Hfad_trace.Trace

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* Journaled stack so a barrier is a real group commit; 4 KiB blocks,
   32 MiB device. *)
let fs_config =
  Fs.Config.v ~cache_pages:1024 ~journal_pages:256 ()

let with_server ?(config = Server.Config.v ()) f =
  let dev = Device.create ~block_size:4096 ~blocks:8192 () in
  let fs = Fs.format ~config:fs_config dev in
  let server = Server.start ~config fs in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Fs.close fs)
    (fun () -> f fs server)

let with_client server f =
  let c = Client.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok = function
  | Ok v -> v
  | Error err -> Alcotest.failf "unexpected response: %a" Client.pp_error err

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- raw-socket helpers (tests that must control framing) ----------- *)

let raw_connect server =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let raw_send_all fd s =
  let off = ref 0 in
  while !off < String.length s do
    off := !off + Unix.write_substring fd s !off (String.length s - !off)
  done

(* Read until [n] response frames arrived (or EOF, returning fewer). *)
let raw_recv_responses fd n =
  let stream = Wire.Stream.responses () in
  let buf = Bytes.create 65536 in
  let out = ref [] in
  let eof = ref false in
  while List.length !out < n && not !eof do
    match Wire.Stream.next stream with
    | Wire.Stream.Frame (id, resp) -> out := (id, resp) :: !out
    | Wire.Stream.Bad { reason; _ } -> Alcotest.failf "bad response: %s" reason
    | Wire.Stream.Awaiting -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> eof := true
        | got -> Wire.Stream.feed stream buf got
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> eof := true)
  done;
  List.rev !out

(* --- codec properties ---------------------------------------------- *)

let gen_key =
  QCheck.Gen.(map Bytes.unsafe_to_string (bytes_size (int_range 0 40)))

let gen_request =
  let open QCheck.Gen in
  let blob = map Bytes.unsafe_to_string (bytes_size (int_range 0 2000)) in
  let gen_txn_op =
    oneof
      [
        map2 (fun key data -> Wire.Tput { key; data }) gen_key blob;
        map (fun key -> Wire.Tdelete { key }) gen_key;
        map3
          (fun key tag value -> Wire.Ttag { key; tag; value })
          gen_key gen_key gen_key;
        map3
          (fun key tag value -> Wire.Tuntag { key; tag; value })
          gen_key gen_key gen_key;
        map2 (fun from_ to_ -> Wire.Trename { from_; to_ }) gen_key gen_key;
      ]
  in
  let plain =
    oneof
      [
        return Wire.Ping;
        return Wire.Flush;
        return Wire.Stats;
        return Wire.Metrics;
        return Wire.Trace_dump;
        map2 (fun key data -> Wire.Put { key; data }) gen_key blob;
        map (fun key -> Wire.Get { key }) gen_key;
        map (fun key -> Wire.Delete { key }) gen_key;
        map3
          (fun key tag value -> Wire.Tag { key; tag; value })
          gen_key gen_key gen_key;
        map (fun query -> Wire.Search { query }) blob;
        map (fun key -> Wire.Stat { key }) gen_key;
        map
          (fun ops -> Wire.Multi { ops })
          (list_size (int_range 0 8) gen_txn_op);
      ]
  in
  (* Any request may carry trace context (the 0x80 kind-flag path);
     nesting is unconstructible on decode, so don't generate it. *)
  oneof
    [
      plain;
      map2
        (fun trace req -> Wire.Traced { trace; req })
        (map Int64.of_int (int_range 0 0x3FFFFFFF))
        plain;
    ]

(* Counters within the u32/u16 wire ranges where the layout demands it;
   quantiles sometimes [max_int], the overflow-bucket marker, which must
   survive the u64 leg intact. *)
let gen_stats =
  let open QCheck.Gen in
  let big = int_range 0 1_000_000 in
  let quant = oneof [ int_range 0 10_000_000; return max_int ] in
  let gen_op_stat =
    gen_key >>= fun op ->
    big >>= fun count ->
    big >>= fun sum_us ->
    quant >>= fun p50_us ->
    quant >>= fun p90_us ->
    quant >>= fun p99_us ->
    return { Wire.Stats.op; count; sum_us; p50_us; p90_us; p99_us }
  in
  let gen_shard_stat =
    int_range 0 0xFFFF >>= fun shard ->
    big >>= fun checkpoints ->
    int_range 0 100_000 >>= fun journal_capacity_pages ->
    int_range 0 100_000 >>= fun dirty_pages ->
    int_range 0 100_000 >>= fun resident_pages ->
    int_range 0 100_000 >>= fun cache_pages ->
    return
      {
        Wire.Stats.shard;
        checkpoints;
        journal_capacity_pages;
        dirty_pages;
        resident_pages;
        cache_pages;
      }
  in
  big >>= fun uptime_us ->
  int_range 0 10_000 >>= fun connections ->
  int_range 0 10_000 >>= fun inflight ->
  big >>= fun requests ->
  big >>= fun busy ->
  big >>= fun errors ->
  big >>= fun batches ->
  big >>= fun batch_ops ->
  big >>= fun bytes_in ->
  big >>= fun bytes_out ->
  big >>= fun trace_spans ->
  big >>= fun trace_dropped ->
  big >>= fun flusher_queue_age_us ->
  list_size (int_range 0 6) gen_op_stat >>= fun ops ->
  list_size (int_range 0 6) gen_shard_stat >>= fun shards ->
  list_size (int_range 0 4) gen_key >>= fun slow ->
  return
    {
      Wire.Stats.uptime_us;
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
    }

let gen_response =
  let open QCheck.Gen in
  let blob = map Bytes.unsafe_to_string (bytes_size (int_range 0 2000)) in
  (* Scores built from integers: finite, and bit-exact through the
     Int64.bits_of_float roundtrip, so structural equality is fair. *)
  let score = map (fun n -> float_of_int n /. 64.) (int_range (-1000) 1000) in
  let oid = map Int64.of_int (int_range 0 1_000_000) in
  oneof
    [
      return Wire.Ok_unit;
      return Wire.Not_found;
      return Wire.Busy;
      map (fun o -> Wire.Ok_oid o) oid;
      map (fun d -> Wire.Ok_data d) blob;
      map (fun hits -> Wire.Ok_hits hits) (list_size (int_range 0 30) (pair oid score));
      map2 (fun o s -> Wire.Ok_stat { oid = o; size = s }) oid
        (map Int64.of_int (int_range 0 1_000_000));
      map (fun oids -> Wire.Ok_oids oids) (list_size (int_range 0 30) oid);
      map (fun msg -> Wire.Err msg) blob;
      map (fun s -> Wire.Ok_stats s) gen_stats;
    ]

(* Feed an encoded frame in arbitrary chunk sizes; the stream must
   produce exactly the original message and then go quiet. *)
let roundtrip_through_chunks ~mk_stream ~equal ~pp (id, msg, chunk) =
  let encoded =
    match msg with
    | `Req r -> Wire.encode_request ~id r
    | `Resp r -> Wire.encode_response ~id r
  in
  let stream = mk_stream () in
  let n = String.length encoded in
  let pos = ref 0 in
  let decoded = ref None in
  while !pos < n do
    let step = min chunk (n - !pos) in
    Wire.Stream.feed_string stream (String.sub encoded !pos step);
    pos := !pos + step;
    (match Wire.Stream.next stream with
    | Wire.Stream.Frame (got_id, got) ->
        if !decoded <> None then Alcotest.fail "frame decoded twice";
        if got_id <> id then Alcotest.failf "id %d decoded as %d" id got_id;
        decoded := Some got
    | Wire.Stream.Awaiting -> ()
    | Wire.Stream.Bad { reason; _ } -> Alcotest.failf "Bad: %s" reason);
    (* A partial or fully-consumed buffer must never yield a frame. *)
    match Wire.Stream.next stream with
    | Wire.Stream.Awaiting -> ()
    | _ -> Alcotest.fail "stream produced a second item"
  done;
  match !decoded with
  | None -> false
  | Some got ->
      if not (equal got msg) then
        Alcotest.failf "decoded %a" pp got;
      true

let prop_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"wire request chunked roundtrip"
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 0 0xFFFFFF) gen_request (int_range 1 64)))
    (fun (id, req, chunk) ->
      roundtrip_through_chunks
        ~mk_stream:Wire.Stream.requests
        ~equal:(fun got msg ->
          match msg with `Req r -> Wire.equal_request got r | _ -> false)
        ~pp:Wire.pp_request
        (id, `Req req, chunk))

let prop_response_roundtrip =
  QCheck.Test.make ~count:300 ~name:"wire response chunked roundtrip"
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 0 0xFFFFFF) gen_response (int_range 1 64)))
    (fun (id, resp, chunk) ->
      roundtrip_through_chunks
        ~mk_stream:Wire.Stream.responses
        ~equal:(fun got msg ->
          match msg with `Resp r -> Wire.equal_response got r | _ -> false)
        ~pp:Wire.pp_response
        (id, `Resp resp, chunk))

(* --- stream rejection ----------------------------------------------- *)

let test_stream_rejects () =
  (* Undersized length prefix. *)
  let s = Wire.Stream.requests () in
  Wire.Stream.feed_string s "\x00\x00\x00\x01";
  (match Wire.Stream.next s with
  | Wire.Stream.Bad { id = None; _ } -> ()
  | _ -> Alcotest.fail "length 1 not rejected");
  (* Sticky: anything after the poison stays Bad. *)
  Wire.Stream.feed_string s (Wire.encode_request ~id:7 Wire.Ping);
  (match Wire.Stream.next s with
  | Wire.Stream.Bad _ -> ()
  | _ -> Alcotest.fail "poisoned stream recovered");
  (* Oversized length: rejected from the 4-byte header alone. *)
  let s = Wire.Stream.requests () in
  Wire.Stream.feed_string s "\x7f\xff\xff\xff";
  (match Wire.Stream.next s with
  | Wire.Stream.Bad { id = None; _ } -> ()
  | _ -> Alcotest.fail "oversized frame not rejected");
  check Alcotest.int "oversized header buffered, not allocated" 0
    (Wire.Stream.buffered s);
  (* Unknown opcode: id recovered from the readable header. *)
  let s = Wire.Stream.requests () in
  Wire.Stream.feed_string s "\x00\x00\x00\x05\x00\x00\x00\x2a\x63";
  (match Wire.Stream.next s with
  | Wire.Stream.Bad { id = Some 42; _ } -> ()
  | _ -> Alcotest.fail "unknown opcode not rejected with its id");
  (* Inner length disagreeing with the payload. *)
  let s = Wire.Stream.requests () in
  (* GET frame whose key length claims 10 bytes but carries 2. *)
  Wire.Stream.feed_string s "\x00\x00\x00\x09\x00\x00\x00\x01\x02\x00\x0aab";
  match Wire.Stream.next s with
  | Wire.Stream.Bad { id = Some 1; _ } -> ()
  | _ -> Alcotest.fail "inner-length lie not rejected"

let test_truncated_is_awaiting () =
  let frame = Wire.encode_request ~id:3 (Wire.Put { key = "k"; data = "xyz" }) in
  let s = Wire.Stream.requests () in
  (* Byte at a time, stopping one short of the full frame. *)
  for i = 0 to String.length frame - 2 do
    Wire.Stream.feed_string s (String.sub frame i 1)
  done;
  (* One byte short of the full frame so far. *)
  (match Wire.Stream.next s with
  | Wire.Stream.Awaiting -> ()
  | _ -> Alcotest.fail "truncated frame should await");
  Wire.Stream.feed_string s (String.sub frame (String.length frame - 1) 1);
  match Wire.Stream.next s with
  | Wire.Stream.Frame (3, Wire.Put { key = "k"; data = "xyz" }) -> ()
  | _ -> Alcotest.fail "completed frame should decode"

(* --- live-server semantics ------------------------------------------ *)

let test_op_roundtrip () =
  with_server (fun fs server ->
      with_client server (fun c ->
          let rtt = Client.ping c in
          check Alcotest.bool "rtt sane" true (rtt >= 0.0 && rtt < 10.0);
          let oid = ok (Client.put c ~key:"a" "hello world") in
          check Alcotest.string "get returns content" "hello world"
            (ok (Client.get c ~key:"a"));
          let soid, size = ok (Client.stat c ~key:"a") in
          check Alcotest.int64 "stat oid" oid soid;
          check Alcotest.int64 "stat size" 11L size;
          (* Replace in place: same key, same object. *)
          let oid2 = ok (Client.put c ~key:"a" "goodbye") in
          check Alcotest.int64 "replace keeps the oid" oid oid2;
          check Alcotest.string "replaced content" "goodbye"
            (ok (Client.get c ~key:"a"));
          (match Client.get c ~key:"missing" with
          | Error Client.Not_found -> ()
          | _ -> Alcotest.fail "missing key should be NOT_FOUND");
          (* TAG lands in the index: visible through the native API. *)
          ok (Client.tag c ~key:"a" ~tag:"USER" ~value:"margo");
          let hits = Fs.lookup fs [ (Tag.User, "margo") ] in
          check Alcotest.bool "tagged object found natively" true
            (List.exists (fun o -> Oid.to_int64 o = oid) hits);
          (* TAG and MULTI's Ttag are the same plan step, so a refused
             tag answers both doors identically. *)
          let refused tag =
            let single = Client.tag c ~key:"a" ~tag ~value:"9" in
            let step =
              Client.multi c [ Wire.Ttag { key = "a"; tag; value = "9" } ]
            in
            match (single, step) with
            | Error (Client.Remote m1), Error (Client.Remote m2) ->
                check Alcotest.string ("same refusal for " ^ tag) m1 m2
            | _ -> Alcotest.failf "tag %S must be refused" tag
          in
          refused "ID";
          refused "bad/tag";
          (* FLUSH drains the content index via the group commit, making
             content searchable. *)
          let boid = ok (Client.put c ~key:"b" "the quick brown fox") in
          ok (Client.flush c);
          let hits = ok (Client.search c "quick fox") in
          check Alcotest.bool "search finds fresh content" true
            (List.exists (fun (o, _) -> o = boid) hits);
          ok (Client.delete c ~key:"a");
          (match Client.get c ~key:"a" with
          | Error Client.Not_found -> ()
          | _ -> Alcotest.fail "deleted key should be NOT_FOUND");
          match Client.delete c ~key:"a" with
          | Error Client.Not_found -> ()
          | _ -> Alcotest.fail "double delete should be NOT_FOUND"))

let test_multi_roundtrip () =
  with_server (fun fs server ->
      with_client server (fun c ->
          (* One frame, one transaction: create two objects, tag one,
             re-key the other. *)
          let aoid = ok (Client.put c ~key:"a" "seed") in
          let oids =
            ok
              (Client.multi c
                 [
                   Wire.Tput { key = "a"; data = "replaced" };
                   Wire.Tput { key = "b"; data = "fresh" };
                   Wire.Ttag { key = "b"; tag = "USER"; value = "margo" };
                   Wire.Trename { from_ = "a"; to_ = "a2" };
                 ])
          in
          (match oids with
          | [ o1; _o2 ] -> check Alcotest.int64 "Tput reuses the oid" aoid o1
          | other -> Alcotest.failf "expected 2 oids, got %d" (List.length other));
          check Alcotest.string "rename re-keyed" "replaced"
            (ok (Client.get c ~key:"a2"));
          (match Client.get c ~key:"a" with
          | Error Client.Not_found -> ()
          | _ -> Alcotest.fail "old key should be gone");
          check Alcotest.bool "Ttag landed" true
            (Fs.lookup fs [ (Tag.User, "margo") ] <> []);
          (* A failing step aborts the WHOLE plan: the Tput before the
             bad Tdelete must not be visible. *)
          (match
             Client.multi c
               [
                 Wire.Tput { key = "c"; data = "doomed" };
                 Wire.Tdelete { key = "no-such-key" };
               ]
           with
          | Error Client.Not_found -> ()
          | other ->
              Alcotest.failf "expected NOT_FOUND, got %s"
                (match other with
                | Ok _ -> "Ok"
                | Error e -> Format.asprintf "%a" Client.pp_error e));
          match Client.get c ~key:"c" with
          | Error Client.Not_found -> ()
          | _ -> Alcotest.fail "aborted Tput must be invisible"))

(* One connection alternates two values on one key while a second one,
   dealt to the other worker domain, GETs it; every GET must return a
   value some PUT sent. *)
let torn_gets values =
  with_server ~config:(Server.Config.v ~workers:2 ()) (fun _fs server ->
      (* Connections are dealt round-robin: writer to worker 0, reader
         to worker 1. *)
      with_client server (fun writer ->
          with_client server (fun reader ->
              ignore (ok (Client.put writer ~key:"torn" values.(0)));
              let stop = Atomic.make false in
              let failure = ref None in
              let puts = ref 0 in
              let writer_thread =
                Thread.create
                  (fun () ->
                    let deadline = Unix.gettimeofday () +. 2.0 in
                    (try
                       while Unix.gettimeofday () < deadline do
                         incr puts;
                         let v = values.(!puts land 1) in
                         ignore (ok (Client.put writer ~key:"torn" v))
                       done
                     with e -> failure := Some e);
                    Atomic.set stop true)
                  ()
              in
              let gets = ref 0 and torn = ref 0 in
              while not (Atomic.get stop) do
                let v = ok (Client.get reader ~key:"torn") in
                incr gets;
                if not (Array.mem v values) then incr torn
              done;
              Thread.join writer_thread;
              Option.iter raise !failure;
              check Alcotest.bool "both sides ran" true (!puts > 1 && !gets > 1);
              check Alcotest.int
                (Printf.sprintf "torn GETs among %d (%d PUTs)" !gets !puts)
                0 !torn)))

(* Equal lengths: a PUT overwrite is a truncate plus a write; unless
   both run under one exclusive section, a GET between them reads the
   empty value no PUT wrote. *)
let test_no_torn_gets () =
  let value word =
    String.concat " " (List.init 32 (Printf.sprintf "%s%02d" word))
  in
  torn_gets [| value "alpha"; value "omega" |]

(* Lengths 100 and 300: a GET that read the size and the bytes in two
   shared sections returned the 300-byte value cut to 100 bytes. *)
let test_no_torn_gets_resized () =
  torn_gets [| String.make 100 's'; String.make 300 'l' |]

(* On a journaled server a PUT is bounded by one journal commit: a value
   too large to seal atomically is refused whole, old value intact. *)
let test_oversized_put_refused () =
  with_server (fun _fs server ->
      with_client server (fun c ->
          ignore (ok (Client.put c ~key:"big" "small and whole"));
          (* Twice fs_config's 256-page journal. *)
          let huge = String.make (2 * 256 * 4096) 'x' in
          (match Client.put c ~key:"big" huge with
          | Error (Client.Remote msg) ->
              check Alcotest.bool "refused as an invalid plan" true
                (contains ~sub:"journal capacity" msg)
          | Ok _ -> Alcotest.fail "oversized PUT accepted"
          | Error e -> Alcotest.failf "expected ERR, got %a" Client.pp_error e);
          check Alcotest.string "old value intact" "small and whole"
            (ok (Client.get c ~key:"big"))))

(* A reader slower than the replies it asked for: the worker parks what
   the socket will not take and resumes it across select rounds, while
   later replies queue behind it. Every reply must still arrive whole
   and in order. *)
let test_slow_reader_gets_every_byte () =
  with_server ~config:(Server.Config.v ~workers:1 ()) (fun _fs server ->
      let words = [| "slow"; "reader"; "parked"; "reply" |] in
      let value =
        String.concat " " (List.init 40_000 (fun i -> words.(i land 3)))
      in
      with_client server (fun c -> ignore (ok (Client.put c ~key:"wide" value)));
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
      (* A lost byte fails the read instead of hanging the suite. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
      let gets = 32 in
      raw_send_all fd
        (String.concat ""
           (List.init gets (fun i ->
                Wire.encode_request ~id:(i + 1) (Wire.Get { key = "wide" }))));
      (* Read nothing until the worker has run into a full socket. *)
      Thread.delay 0.2;
      let replies = raw_recv_responses fd gets in
      Unix.close fd;
      check (Alcotest.list Alcotest.int) "every reply, in order"
        (List.init gets (fun i -> i + 1))
        (List.map fst replies);
      List.iter
        (fun (id, r) ->
          match r with
          | Wire.Ok_data d when d = value -> ()
          | other ->
              Alcotest.failf "reply %d: %a" id Wire.pp_response other)
        replies)

let test_malformed_does_not_wedge_worker () =
  (* One worker, so both connections share it: the poisoned one must
     die without taking the healthy one along. *)
  with_server ~config:(Server.Config.v ~workers:1 ()) (fun _fs server ->
      with_client server (fun healthy ->
          ignore (ok (Client.put healthy ~key:"sane" "before"));
          let evil = raw_connect server in
          (* 32 bytes of garbage whose length prefix is enormous. *)
          raw_send_all evil (String.make 32 '\xff');
          (match raw_recv_responses evil 1 with
          | [ (_, Wire.Err _) ] -> ()
          | other ->
              Alcotest.failf "expected ERR, got %d frame(s)" (List.length other));
          (* ...and then EOF: the server closed the poisoned stream. *)
          check Alcotest.int "poisoned connection closed" 0
            (List.length (raw_recv_responses evil 1));
          Unix.close evil;
          (* Truncated frame then hangup: no reply owed, no wedge. *)
          let half = raw_connect server in
          let frame = Wire.encode_request ~id:1 (Wire.Put { key = "h"; data = "zz" }) in
          raw_send_all half (String.sub frame 0 (String.length frame - 1));
          Unix.close half;
          (* The shared worker still serves the healthy connection. *)
          check Alcotest.string "worker survives poisoned peers" "before"
            (ok (Client.get healthy ~key:"sane"));
          ignore (ok (Client.put healthy ~key:"sane" "after"));
          check Alcotest.string "worker still mutates" "after"
            (ok (Client.get healthy ~key:"sane"))))

let test_busy_backpressure () =
  let max_inflight = 4 in
  with_server
    ~config:(Server.Config.v ~workers:1 ~max_inflight ())
    (fun _fs server ->
      let fd = raw_connect server in
      let burst = 64 in
      (* One write carrying the whole burst: the worker's next read
         parses far more frames than the inflight budget allows. *)
      let b = Buffer.create 4096 in
      for id = 1 to burst do
        Buffer.add_string b
          (Wire.encode_request ~id (Wire.Put { key = "burst"; data = "x" }))
      done;
      raw_send_all fd (Buffer.contents b);
      let replies = raw_recv_responses fd burst in
      check Alcotest.int "every frame answered" burst (List.length replies);
      let busy, rest =
        List.partition (fun (_, r) -> r = Wire.Busy) replies
      in
      check Alcotest.bool "BUSY under saturation" true (List.length busy > 0);
      check Alcotest.bool "accepted requests still acked" true
        (List.length rest > 0);
      List.iter
        (fun (_, r) ->
          match r with
          | Wire.Ok_oid _ | Wire.Busy -> ()
          | other -> Alcotest.failf "unexpected reply %a" Wire.pp_response other)
        replies;
      (* Ids are answered exactly once. *)
      let ids = List.sort compare (List.map fst replies) in
      check (Alcotest.list Alcotest.int) "ids answered exactly once"
        (List.init burst (fun i -> i + 1))
        ids;
      let stats = Server.stats server in
      check Alcotest.bool "busy counted" true (stats.busy >= List.length busy);
      Unix.close fd;
      (* Saturation refused work; it must not have broken the server. *)
      with_client server (fun c ->
          check Alcotest.string "server alive after saturation" "x"
            (ok (Client.get c ~key:"burst"))))

let test_stress_no_lost_acks () =
  (* 4 worker domains, 8 sync client threads: every request must get
     exactly one reply (Client.call raises on anything else), every
     written value must read back, and nothing may be refused BUSY
     (sync clients never exceed an inflight budget of 1). *)
  let clients = 8 and keys_per_client = 6 and rounds = 40 in
  with_server ~config:(Server.Config.v ~workers:4 ()) (fun _fs server ->
      let errors = Array.make clients None in
      let threads =
        List.init clients (fun ci ->
            Thread.create
              (fun () ->
                try
                  with_client server (fun c ->
                      let key k = Printf.sprintf "t%d-k%d" ci k in
                      let last = Array.make keys_per_client "" in
                      for k = 0 to keys_per_client - 1 do
                        last.(k) <- Printf.sprintf "init-%d-%d" ci k;
                        ignore (ok (Client.put c ~key:(key k) last.(k)))
                      done;
                      for r = 0 to rounds - 1 do
                        let k = r mod keys_per_client in
                        if r mod 7 = 3 then ok (Client.flush c)
                        else if r mod 3 = 0 then
                          check Alcotest.string "read-your-writes" last.(k)
                            (ok (Client.get c ~key:(key k)))
                        else begin
                          last.(k) <- Printf.sprintf "v-%d-%d" ci r;
                          ignore (ok (Client.put c ~key:(key k) last.(k)))
                        end
                      done;
                      for k = 0 to keys_per_client - 1 do
                        check Alcotest.string "final readback" last.(k)
                          (ok (Client.get c ~key:(key k)))
                      done)
                with exn -> errors.(ci) <- Some exn)
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun ci e ->
          match e with
          | None -> ()
          | Some exn ->
              Alcotest.failf "client %d failed: %s" ci (Printexc.to_string exn))
        errors;
      let stats = Server.stats server in
      check Alcotest.int "no BUSY for sync clients" 0 stats.busy;
      check Alcotest.int "no errors" 0 stats.errors;
      check Alcotest.bool "mutation acks rode group commits" true
        (stats.batches > 0 && stats.batch_ops > 0);
      check Alcotest.int "all connections accepted" clients
        (Counter.get
           (Registry.counter Registry.global
              (Server.metrics_prefix server ^ ".accepted"))))

(* --- remote observability ------------------------------------------- *)

let op_count (s : Wire.Stats.t) op =
  match List.find_opt (fun (o : Wire.Stats.op_stat) -> o.op = op) s.ops with
  | Some o -> o.count
  | None -> Alcotest.failf "no %s row in STATS" op

let test_stats_scrape () =
  with_server (fun fs server ->
      with_client server (fun c ->
          (* The histograms are process-global, so measure by delta. *)
          let s0 = ok (Client.stats c) in
          ignore (ok (Client.put c ~key:"s1" "alpha"));
          ignore (ok (Client.put c ~key:"s2" "beta"));
          check Alcotest.string "get" "alpha" (ok (Client.get c ~key:"s1"));
          ok (Client.flush c);
          let s = ok (Client.stats c) in
          check Alcotest.bool "uptime advances" true
            (s.uptime_us > 0 && s.uptime_us >= s0.uptime_us);
          check Alcotest.int "one connection" 1 s.connections;
          check Alcotest.bool "requests counted" true
            (s.requests - s0.requests >= 5);
          check Alcotest.bool "puts observed" true
            (op_count s "put" - op_count s0 "put" >= 2);
          check Alcotest.bool "get observed" true
            (op_count s "get" - op_count s0 "get" >= 1);
          check Alcotest.bool "flush observed as sync" true
            (op_count s "sync" - op_count s0 "sync" >= 1);
          (* An observed op has mass: quantile bounds are positive. *)
          (match
             List.find_opt (fun (o : Wire.Stats.op_stat) -> o.op = "put") s.ops
           with
          | Some o ->
              check Alcotest.bool "put quantiles ordered" true
                (o.p50_us <= o.p90_us && o.p90_us <= o.p99_us && o.p50_us > 0)
          | None -> Alcotest.fail "no put row");
          check Alcotest.bool "acks rode batches" true
            (s.batches > s0.batches && s.batch_ops > s0.batch_ops);
          check Alcotest.int "one shard on this stack" (Fs.shard_count fs)
            (List.length s.shards);
          (match s.shards with
          | [ sh ] ->
              check Alcotest.int "shard index" 0 sh.shard;
              check Alcotest.bool "journaled stack" true
                (sh.journal_capacity_pages > 0);
              check Alcotest.bool "commits sealed" true (sh.checkpoints >= 1);
              check Alcotest.bool "pager occupancy sane" true
                (sh.resident_pages >= 0 && sh.resident_pages <= sh.cache_pages);
              check Alcotest.int "pager capacity" 1024 sh.cache_pages
          | _ -> Alcotest.fail "expected exactly one shard row");
          check (Alcotest.list Alcotest.string) "slow log off by default" []
            s.slow))

let test_metrics_scrape () =
  with_server (fun _fs server ->
      with_client server (fun c ->
          ignore (ok (Client.put c ~key:"m" "metrics roundtrip"));
          let text = ok (Client.metrics c) in
          let series = Prometheus.parse_text text in
          check Alcotest.bool "exposition non-empty" true (series <> []);
          (* This server's pooled counters are in the scrape... *)
          let name =
            Prometheus.sanitize (Server.metrics_prefix server ^ ".requests")
          in
          (match List.assoc_opt name series with
          | Some v -> check Alcotest.bool "requests counted" true (v >= 2)
          | None -> Alcotest.failf "%s missing from exposition" name);
          (* ...and so are the process-global latency histograms. *)
          check Alcotest.bool "latency histogram exposed" true
            (List.mem_assoc "server_latency_us_put_count" series);
          List.iter
            (fun name ->
              check Alcotest.bool (name ^ " exposed") true (List.mem_assoc name series))
            [ "btree_descents"; "btree_node_decodes" ]))

let test_trace_scrape_and_propagation () =
  with_server (fun _fs server ->
      with_client server (fun c ->
          Trace.set_enabled true;
          Fun.protect
            ~finally:(fun () ->
              Trace.set_enabled false;
              Trace.clear ())
            (fun () ->
              Trace.clear ();
              let trace_id = 0xABCDEF12L in
              (match Client.call ~trace:trace_id c (Wire.Put { key = "t"; data = "v" }) with
              | Wire.Ok_oid _ -> ()
              | other ->
                  Alcotest.failf "traced put: %a" Wire.pp_response other);
              (* The server runs in-process: its spans are inspectable
                 directly. The request span must carry the caller's id. *)
              let spans = Trace.spans () in
              let request_spans =
                List.filter
                  (fun (sp : Trace.span) ->
                    sp.layer = "server" && sp.op = "request")
                  spans
              in
              check Alcotest.bool "server.request span recorded" true
                (request_spans <> []);
              check Alcotest.bool "trace id stitched onto the span" true
                (List.exists
                   (fun sp -> Trace.attr sp "trace_id" = Some "abcdef12")
                   request_spans);
              (* And the remote dump carries the same spans as JSON. *)
              let json = ok (Client.trace c) in
              check Alcotest.bool "dump has server.request" true
                (contains ~sub:"server.request" json);
              check Alcotest.bool "dump has the trace id" true
                (contains ~sub:"abcdef12" json))))

let test_slow_log_capture () =
  (* Threshold 1 us: every request qualifies; the log must capture the
     op, stay bounded, and ride STATS. *)
  with_server
    ~config:(Server.Config.v ~slow_threshold_us:1 ())
    (fun _fs server ->
      with_client server (fun c ->
          ignore (ok (Client.put c ~key:"slow" "payload"));
          check Alcotest.string "get" "payload" (ok (Client.get c ~key:"slow"));
          let s = ok (Client.stats c) in
          check Alcotest.bool "slow log non-empty" true (s.slow <> []);
          check Alcotest.bool "slow log bounded" true (List.length s.slow <= 64);
          check Alcotest.bool "put captured" true
            (List.exists (fun l -> contains ~sub:"\"op\":\"put\"" l) s.slow);
          check Alcotest.bool "lines are json-shaped" true
            (List.for_all
               (fun l ->
                 String.length l >= 2
                 && l.[0] = '{'
                 && contains ~sub:"\"dur_us\":" l)
               s.slow)))

(* A tag the index refuses answers ERR and leaves no lock behind: TAG
   and GET on both connections (one per worker) still get their answer.
   The whole exchange is bounded, so a wedge fails instead of hanging. *)
let test_refused_tag_does_not_wedge () =
  Watchdog.within ~seconds:10.0 "TAG/GET after a refused TAG" @@ fun () ->
  with_server (fun _fs server ->
      with_client server (fun c1 ->
          with_client server (fun c2 ->
              ignore (ok (Client.put c1 ~key:"k" "value"));
              (match Client.tag c1 ~key:"k" ~tag:"a\001b" ~value:"x" with
              | Error (Client.Remote _) -> ()
              | Ok () -> Alcotest.fail "a tag with a reserved byte was accepted"
              | Error e -> Alcotest.failf "expected ERR, got %a" Client.pp_error e);
              ok (Client.tag c1 ~key:"k" ~tag:"USER" ~value:"margo");
              ok (Client.tag c2 ~key:"k" ~tag:"UDEF" ~value:"beach");
              check Alcotest.string "GET on the first connection" "value"
                (ok (Client.get c1 ~key:"k"));
              check Alcotest.string "GET on the second connection" "value"
                (ok (Client.get c2 ~key:"k")))))

let test_prefix_pool_audit () =
  let live = Prefix_pool.live "server" in
  let size = Registry.size Registry.global in
  for _ = 1 to 3 do
    with_server (fun _fs server -> ignore (Server.port server))
  done;
  check Alcotest.int "server prefixes released" live (Prefix_pool.live "server");
  check Alcotest.int "server counters purged" size (Registry.size Registry.global)

let suite =
  [
    qtest prop_request_roundtrip;
    qtest prop_response_roundtrip;
    Alcotest.test_case "stream rejects malformed frames" `Quick
      test_stream_rejects;
    Alcotest.test_case "truncated frame awaits, then decodes" `Quick
      test_truncated_is_awaiting;
    Alcotest.test_case "op roundtrip over TCP" `Quick test_op_roundtrip;
    Alcotest.test_case "MULTI transaction over TCP" `Quick
      test_multi_roundtrip;
    Alcotest.test_case "no torn GETs under PUT overwrite" `Quick
      test_no_torn_gets;
    Alcotest.test_case "no torn GETs when a PUT resizes the value" `Quick
      test_no_torn_gets_resized;
    Alcotest.test_case "oversized PUT refused whole" `Quick
      test_oversized_put_refused;
    Alcotest.test_case "slow reader gets every byte" `Quick
      test_slow_reader_gets_every_byte;
    Alcotest.test_case "malformed frame never wedges the worker" `Quick
      test_malformed_does_not_wedge_worker;
    Alcotest.test_case "BUSY backpressure under burst" `Quick
      test_busy_backpressure;
    Alcotest.test_case "4-domain stress: no lost acks" `Quick
      test_stress_no_lost_acks;
    Alcotest.test_case "STATS scrape reflects the workload" `Quick
      test_stats_scrape;
    Alcotest.test_case "METRICS scrape is the process exposition" `Quick
      test_metrics_scrape;
    Alcotest.test_case "TRACE scrape + trace-id propagation" `Quick
      test_trace_scrape_and_propagation;
    Alcotest.test_case "slow-request log capture" `Quick
      test_slow_log_capture;
    Alcotest.test_case "metrics prefix pool audit" `Quick
      test_prefix_pool_audit;
    Alcotest.test_case "refused TAG does not wedge the server" `Quick
      test_refused_tag_does_not_wedge;
  ]
