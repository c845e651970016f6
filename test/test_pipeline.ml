(* The asynchronous group-commit write pipeline: batching and trigger
   behaviour, barrier (fsync) semantics, daemon lifecycle, failure
   stickiness, multi-domain readers racing the flusher, and the
   pipelined/synchronous equivalence property — after a barrier, the two
   durability modes must have produced byte-identical images outside the
   journal region. *)

module Device = Hfad_blockdev.Device
module Osd = Hfad_osd.Osd
module Fs = Hfad.Fs
module Flusher = Hfad.Flusher
module Oid = Hfad_osd.Oid
module Tag = Hfad_index.Tag
module Rng = Hfad_util.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let snapshot dev =
  let path = Filename.temp_file "hfad_pipe" ".img" in
  Device.save dev path;
  let copy = Device.load path in
  Sys.remove path;
  copy

(* Thresholds so large that only a barrier (or stop) triggers the group
   commit — batching becomes observable and deterministic. *)
let manual_config ?(index_mode = Fs.Eager) () =
  Fs.Config.v ~cache_pages:4096 ~journal_pages:256 ~index_mode
    ~batch_max_pages:1_000_000 ~batch_max_age:3600.0 ()

let mk_manual () =
  let dev = Device.create ~block_size:512 ~blocks:16384 () in
  let fs = Fs.format ~config:(manual_config ()) dev in
  Fs.start_pipeline fs;
  (dev, fs)

(* Wait (bounded) for the daemon to advance the journal sequence. *)
let await_sequence osd ~beyond =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    Osd.journal_sequence osd <= beyond && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.002
  done;
  Osd.journal_sequence osd

(* --- batching ------------------------------------------------------------- *)

let test_group_commit_coalesces () =
  let _dev, fs = mk_manual () in
  let osd = Fs.osd fs in
  let seq0 = Osd.journal_sequence osd in
  let oid = Fs.create_exn fs ~content:"seed" in
  for i = 1 to 50 do
    Fs.append_exn fs oid (Printf.sprintf "chunk %03d " i)
  done;
  (* 51 acknowledged mutations, none durable yet, zero commits issued. *)
  check Alcotest.int64 "no commit before barrier" seq0 (Osd.journal_sequence osd);
  Fs.sync_exn fs;
  (* One barrier, one journaled checkpoint for the whole batch. *)
  check Alcotest.int64 "exactly one group commit" (Int64.add seq0 1L)
    (Osd.journal_sequence osd);
  (match Fs.pipeline_stats fs with
  | None -> Alcotest.fail "pipeline stats missing"
  | Some s ->
      check Alcotest.int "all acked mutations durable" s.Flusher.acked
        s.Flusher.durable;
      check Alcotest.bool "batch carried many ops" true (s.Flusher.acked >= 51);
      check Alcotest.int "one commit" 1 s.Flusher.commits);
  Fs.stop_pipeline fs

let test_age_trigger () =
  let dev = Device.create ~block_size:512 ~blocks:8192 () in
  let fs =
    Fs.format
      ~config:
        (Fs.Config.v ~journal_pages:128 ~index_mode:Fs.Off
           ~batch_max_pages:1_000_000 ~batch_max_age:0.005 ())
      dev
  in
  Fs.start_pipeline fs;
  let osd = Fs.osd fs in
  let seq0 = Osd.journal_sequence osd in
  ignore (Fs.create_exn fs ~content:"age-triggered payload");
  (* No barrier: the daemon must commit on its own once the batch ages. *)
  let seq = await_sequence osd ~beyond:seq0 in
  check Alcotest.bool "daemon committed on age" true (seq > seq0);
  (match Fs.pipeline_stats fs with
  | Some s -> check Alcotest.bool "durable caught up" true (s.Flusher.durable >= 1)
  | None -> Alcotest.fail "pipeline stats missing");
  Fs.stop_pipeline fs

let test_size_trigger () =
  let dev = Device.create ~block_size:512 ~blocks:8192 () in
  let fs =
    Fs.format
      ~config:
        (Fs.Config.v ~journal_pages:128 ~index_mode:Fs.Off ~batch_max_pages:1
           ~batch_max_age:3600.0 ())
      dev
  in
  Fs.start_pipeline fs;
  let osd = Fs.osd fs in
  let seq0 = Osd.journal_sequence osd in
  ignore (Fs.create_exn fs ~content:"size-triggered payload");
  let seq = await_sequence osd ~beyond:seq0 in
  check Alcotest.bool "daemon committed on size" true (seq > seq0);
  Fs.stop_pipeline fs

(* --- barrier semantics ------------------------------------------------------ *)

let test_barrier_is_fsync () =
  let dev, fs = mk_manual () in
  let oid =
    Fs.create_exn fs ~names:[ (Tag.Udef, "precious") ] ~content:"must survive"
  in
  (* Durability is decoupled: before the barrier, the device image knows
     nothing of the acknowledged mutation (NO-STEAL keeps it cached). *)
  let early = Fs.open_existing_exn (snapshot dev) in
  check Alcotest.bool "not yet durable" false (Fs.exists early oid);
  Fs.sync_exn fs;
  (* After the barrier, a crash-free pull of the disk has everything. *)
  let late = Fs.open_existing_exn (snapshot dev) in
  check Alcotest.bool "durable after barrier" true (Fs.exists late oid);
  check Alcotest.string "content" "must survive" (Fs.read_all late oid);
  check Alcotest.bool "name durable" true
    (Fs.lookup late [ (Tag.Udef, "precious") ] = [ oid ]);
  Fs.verify late;
  Fs.stop_pipeline fs

let test_empty_barrier_is_free () =
  let _dev, fs = mk_manual () in
  let osd = Fs.osd fs in
  let seq0 = Osd.journal_sequence osd in
  Fs.sync_exn fs;
  Fs.sync_exn fs;
  check Alcotest.int64 "nothing pending, nothing committed" seq0
    (Osd.journal_sequence osd);
  Fs.stop_pipeline fs

let test_stop_drains () =
  let dev, fs = mk_manual () in
  let oid = Fs.create_exn fs ~content:"drained on stop" in
  Fs.stop_pipeline fs;
  check Alcotest.bool "pipeline stopped" false (Fs.pipeline_running fs);
  let fs2 = Fs.open_existing_exn (snapshot dev) in
  check Alcotest.string "stop made the batch durable" "drained on stop"
    (Fs.read_all fs2 oid);
  (* The pipeline restarts cleanly. *)
  Fs.start_pipeline fs;
  check Alcotest.bool "restarted" true (Fs.pipeline_running fs);
  let oid2 = Fs.create_exn fs ~content:"second run" in
  Fs.sync_exn fs;
  let fs3 = Fs.open_existing_exn (snapshot dev) in
  check Alcotest.string "second run durable" "second run" (Fs.read_all fs3 oid2);
  Fs.stop_pipeline fs

let test_sync_writes_mode () =
  let dev = Device.create ~block_size:512 ~blocks:8192 () in
  let fs =
    Fs.format
      ~config:(Fs.Config.v ~journal_pages:128 ~index_mode:Fs.Off ~sync_writes:true ())
      dev
  in
  (* sync_writes and the pipeline are exclusive: start is a no-op. *)
  Fs.start_pipeline fs;
  check Alcotest.bool "no pipeline under sync_writes" false (Fs.pipeline_running fs);
  let oid = Fs.create_exn fs ~content:"durable per-op" in
  (* No flush, no barrier — the mutation alone already checkpointed. *)
  let fs2 = Fs.open_existing_exn (snapshot dev) in
  check Alcotest.string "durable without barrier" "durable per-op"
    (Fs.read_all fs2 oid)

let test_barrier_without_pipeline () =
  let dev = Device.create ~block_size:512 ~blocks:8192 () in
  let fs =
    Fs.format ~config:(Fs.Config.v ~journal_pages:128 ~index_mode:Fs.Off ()) dev
  in
  let oid = Fs.create_exn fs ~content:"synchronous barrier" in
  (match Fs.sync fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "barrier failed: %s" (Fs.error_message e));
  let fs2 = Fs.open_existing_exn (snapshot dev) in
  check Alcotest.string "durable" "synchronous barrier" (Fs.read_all fs2 oid)

let test_failed_commit_is_sticky () =
  let dev, fs = mk_manual () in
  ignore (Fs.create_exn fs ~content:"doomed batch");
  (* Kill the device at the first write of the group commit. *)
  Device.arm_crash dev ~after_writes:0 ();
  (match Fs.sync fs with
  | Ok () -> Alcotest.fail "barrier succeeded on a dead device"
  | Error (Fs.Io _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_message e));
  (* The failure is sticky: every later barrier reports it too. *)
  (match Fs.sync fs with
  | Ok () -> Alcotest.fail "sticky failure forgotten"
  | Error (Fs.Io _) -> ()
  | Error e -> Alcotest.failf "wrong sticky error: %s" (Fs.error_message e));
  Fs.stop_pipeline fs

(* --- readers race the daemon ----------------------------------------------- *)

let test_readers_race_flusher () =
  (* Aggressive triggers: the daemon group-commits constantly (exclusive
     side of the stack rwlock) while reader domains resolve and read
     (shared side) and the main thread mutates. Readers must observe
     only complete states; the final verify must pass. *)
  let dev = Device.create ~block_size:1024 ~blocks:32768 () in
  let fs =
    Fs.format
      ~config:
        (Fs.Config.v ~cache_pages:4096 ~journal_pages:512 ~index_mode:Fs.Eager
           ~batch_max_pages:4 ~batch_max_age:0.001 ())
      dev
  in
  Fs.start_pipeline fs;
  let stable_n = 16 in
  let stable =
    Array.init stable_n (fun i ->
        Fs.create_exn fs
          ~names:[ (Tag.Udef, Printf.sprintf "pinned-%02d" i) ]
          ~content:(Printf.sprintf "pinned payload %d" i))
  in
  Fs.sync_exn fs;
  let failures = Atomic.make 0 in
  let readers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.create (Int64.of_int (31 + d)) in
            for _ = 1 to 200 do
              let i = Rng.int rng stable_n in
              (match
                 Fs.lookup fs [ (Tag.Udef, Printf.sprintf "pinned-%02d" i) ]
               with
              | [ oid ] when Oid.equal oid stable.(i) ->
                  if
                    Fs.read_all fs oid <> Printf.sprintf "pinned payload %d" i
                  then Atomic.incr failures
              | _ -> Atomic.incr failures);
              if
                List.length (Fs.list_names fs Tag.Udef ~prefix:"pinned-")
                <> stable_n
              then Atomic.incr failures
            done))
  in
  (* Churn: every mutation joins a pipeline batch; tiny thresholds force
     commits to interleave with the readers above. *)
  let churn = Fs.create_exn fs ~content:"" in
  for i = 1 to 150 do
    Fs.append_exn fs churn (Printf.sprintf "churn line %04d\n" i)
  done;
  List.iter Domain.join readers;
  Fs.sync_exn fs;
  check Alcotest.int "no reader anomalies" 0 (Atomic.get failures);
  (match Fs.pipeline_stats fs with
  | Some s ->
      check Alcotest.bool "commits interleaved with readers" true
        (s.Flusher.commits > 1)
  | None -> Alcotest.fail "pipeline stats missing");
  Fs.verify fs;
  Fs.stop_pipeline fs;
  (* Everything survives a reopen. *)
  let fs2 = Fs.open_existing_exn (snapshot dev) in
  check Alcotest.int "churn object size survives"
    (Fs.size fs churn) (Fs.size fs2 churn);
  Fs.verify fs2

(* --- pipelined == synchronous (qcheck) -------------------------------------- *)

(* Random mutation programs must leave byte-identical device images
   whether each op checkpointed synchronously or the whole program rode
   one pipeline batch sealed by a single barrier. Only the journal
   region may differ (its header counts commits — the two modes commit
   different numbers of times by design). *)

type op =
  | Append of int * char * int
  | Write of int * int * char * int
  | Insert of int * int * char * int
  | Remove of int * int * int
  | Truncate of int * int

let op_print = function
  | Append (o, c, n) -> Printf.sprintf "append(%d,%c*%d)" o c n
  | Write (o, off, c, n) -> Printf.sprintf "write(%d,@%d,%c*%d)" o off c n
  | Insert (o, off, c, n) -> Printf.sprintf "insert(%d,@%d,%c*%d)" o off c n
  | Remove (o, off, n) -> Printf.sprintf "remove(%d,@%d,%d)" o off n
  | Truncate (o, n) -> Printf.sprintf "truncate(%d,%d)" o n

let objects = 4

let op_gen =
  QCheck.Gen.(
    let obj = int_range 0 (objects - 1) in
    let off = int_range 0 600 in
    let len = int_range 0 400 in
    let ch = map (fun i -> Char.chr (Char.code 'a' + i)) (int_range 0 25) in
    oneof
      [
        map3 (fun o c n -> Append (o, c, n)) obj ch len;
        map2 (fun o (off, c, n) -> Write (o, off, c, n)) obj (triple off ch len);
        map2 (fun o (off, c, n) -> Insert (o, off, c, n)) obj (triple off ch len);
        map3 (fun o off n -> Remove (o, off, n)) obj off len;
        map2 (fun o n -> Truncate (o, n)) obj (int_range 0 800);
      ])

(* Word boundaries every few bytes keep the Eager indexer's tokens small
   (a kilobyte-long single "word" would overflow a posting key). *)
let payload c n = String.init n (fun i -> if i mod 8 = 7 then ' ' else c)

let apply fs oids = function
  | Append (o, c, n) -> Fs.append_exn fs oids.(o) (payload c n)
  | Write (o, off, c, n) -> Fs.write_exn fs oids.(o) ~off (payload c n)
  | Insert (o, off, c, n) -> Fs.insert_exn fs oids.(o) ~off (payload c n)
  | Remove (o, off, n) -> Fs.remove_bytes_exn fs oids.(o) ~off ~len:n
  | Truncate (o, n) -> Fs.truncate_exn fs oids.(o) n

let journal_pages = 64
let blocks = 8192

let build ~pipelined ops =
  (* The metadata clock is a process-global logical counter; identical
     tick sequences in both builds need a reset. *)
  Hfad_osd.Meta.reset_logical_clock ();
  let dev = Device.create ~block_size:512 ~blocks () in
  let config =
    Fs.Config.v ~cache_pages:4096 ~journal_pages ~index_mode:Fs.Eager
      ~batch_max_pages:1_000_000 ~batch_max_age:3600.0
      ~sync_writes:(not pipelined) ()
  in
  let fs = Fs.format ~config dev in
  if pipelined then Fs.start_pipeline fs;
  let oids =
    Array.init objects (fun i ->
        Fs.create_exn fs ~content:(Printf.sprintf "seed object %d" i))
  in
  List.iter (fun op -> apply fs oids op) ops;
  Fs.sync_exn fs;
  if pipelined then Fs.stop_pipeline fs;
  (dev, fs, oids)

let prop_pipelined_equals_sync =
  QCheck.Test.make ~name:"pipelined == sync images after barrier" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map op_print ops))
       QCheck.Gen.(list_size (int_range 0 30) op_gen))
    (fun ops ->
      let dev_p, fs_p, oids_p = build ~pipelined:true ops in
      let dev_s, fs_s, oids_s = build ~pipelined:false ops in
      (* Logical equivalence first (better counterexamples)... *)
      Array.iteri
        (fun i oid_p ->
          let a = Fs.read_all fs_p oid_p and b = Fs.read_all fs_s oids_s.(i) in
          if a <> b then
            QCheck.Test.fail_reportf "object %d diverged: %d vs %d bytes" i
              (String.length a) (String.length b))
        oids_p;
      Fs.verify fs_p;
      Fs.verify fs_s;
      (* ...then the real claim: byte-identical images outside the
         journal region (blocks [2, 2+journal_pages)). *)
      let journal_first = 2 in
      for b = 0 to blocks - 1 do
        if b < journal_first || b >= journal_first + journal_pages then begin
          let pb = Device.read_block dev_p b and sb = Device.read_block dev_s b in
          if not (Bytes.equal pb sb) then
            QCheck.Test.fail_reportf "block %d differs between modes" b
        end
      done;
      true)

let suite =
  [
    Alcotest.test_case "group commit coalesces a batch" `Quick
      test_group_commit_coalesces;
    Alcotest.test_case "age trigger" `Quick test_age_trigger;
    Alcotest.test_case "size trigger" `Quick test_size_trigger;
    Alcotest.test_case "barrier is fsync" `Quick test_barrier_is_fsync;
    Alcotest.test_case "empty barrier commits nothing" `Quick
      test_empty_barrier_is_free;
    Alcotest.test_case "stop drains the batch" `Quick test_stop_drains;
    Alcotest.test_case "sync_writes checkpoints per op" `Quick
      test_sync_writes_mode;
    Alcotest.test_case "barrier without pipeline" `Quick
      test_barrier_without_pipeline;
    Alcotest.test_case "failed commit is sticky" `Quick
      test_failed_commit_is_sticky;
    Alcotest.test_case "readers race the flusher daemon" `Quick
      test_readers_race_flusher;
    qtest prop_pipelined_equals_sync;
  ]
