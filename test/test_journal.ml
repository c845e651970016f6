(* Tests for the write-ahead journal: unit behaviour of Journal itself
   (typed recovery outcomes, group-commit record splitting, capacity
   arithmetic, codec roundtrips), then crash-consistency of journaled
   OSD checkpoints — a "crash" is simulated by snapshotting the device
   image at a chosen instant and reopening from the snapshot. *)

module Device = Hfad_blockdev.Device
module Pager = Hfad_pager.Pager
module Journal = Hfad_journal.Journal
module Crc32 = Hfad_util.Crc32
module Osd = Hfad_osd.Osd
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module P = Hfad_posix.Posix_fs

let check = Alcotest.check

let mk_dev ?(block_size = 512) ?(blocks = 4096) () =
  Device.create ~block_size ~blocks ()

let page dev c = Bytes.make (Device.block_size dev) c

let attach_exn dev ~first_block ~blocks =
  match Journal.attach dev ~first_block ~blocks with
  | Ok j -> j
  | Error reason -> Alcotest.failf "attach refused: %a" Journal.pp_reason reason

(* Snapshot a device through its image format: a perfect copy of the
   persistent state at this instant. *)
let snapshot dev =
  let path = Filename.temp_file "hfad_crash" ".img" in
  Device.save dev path;
  let copy = Device.load path in
  Sys.remove path;
  copy

(* --- Journal unit behaviour ------------------------------------------------ *)

let test_journal_roundtrip () =
  let dev = mk_dev () in
  let j = Journal.format dev ~first_block:2 ~blocks:64 in
  check Alcotest.bool "clean initially" true (Journal.recover j = Journal.Clean);
  Journal.commit j [ (100, page dev 'a'); (200, page dev 'b') ];
  (match Journal.recover j with
  | Journal.Committed [ (100, a); (200, b) ] ->
      check Alcotest.bytes "page a" (page dev 'a') a;
      check Alcotest.bytes "page b" (page dev 'b') b
  | _ -> Alcotest.fail "expected the committed batch");
  (* recovery is idempotent until mark_clean *)
  check Alcotest.bool "still recoverable" true
    (match Journal.recover j with Journal.Committed _ -> true | _ -> false);
  Journal.mark_clean j;
  check Alcotest.bool "clean after checkpoint" true
    (Journal.recover j = Journal.Clean)

let test_journal_empty_commit () =
  let dev = mk_dev () in
  let j = Journal.format dev ~first_block:2 ~blocks:8 in
  Journal.commit j [];
  check Alcotest.bool "no-op" true (Journal.recover j = Journal.Clean)

let test_journal_sequence_advances () =
  let dev = mk_dev () in
  let j = Journal.format dev ~first_block:2 ~blocks:64 in
  check Alcotest.int64 "initial" 0L (Journal.sequence j);
  Journal.commit j [ (50, page dev 'x') ];
  Journal.mark_clean j;
  Journal.commit j [ (51, page dev 'y') ];
  check Alcotest.int64 "two commits" 2L (Journal.sequence j);
  (* attach restores the sequence *)
  let j2 = attach_exn dev ~first_block:2 ~blocks:64 in
  ignore (Journal.recover j2);
  check Alcotest.int64 "survives attach" 2L (Journal.sequence j2)

let test_journal_full () =
  let dev = mk_dev () in
  let j = Journal.format dev ~first_block:2 ~blocks:4 in
  let batch = List.init 10 (fun i -> (100 + i, page dev 'z')) in
  check Alcotest.bool "would not fit" false (Journal.would_fit j ~pages:10);
  (try
     Journal.commit j batch;
     Alcotest.fail "expected Journal_full"
   with Journal.Journal_full _ -> ());
  check Alcotest.bool "capacity sane" true (Journal.capacity_pages j < 10)

let test_journal_capacity_consistent () =
  List.iter
    (fun (block_size, blocks) ->
      let dev = Device.create ~block_size ~blocks:4096 () in
      let j = Journal.format dev ~first_block:2 ~blocks in
      let cap = Journal.capacity_pages j in
      check Alcotest.bool
        (Printf.sprintf "capacity %d fits (bs=%d, blocks=%d)" cap block_size
           blocks)
        true
        (cap = 0 || Journal.would_fit j ~pages:cap);
      check Alcotest.bool
        (Printf.sprintf "capacity+1 overflows (bs=%d, blocks=%d)" block_size
           blocks)
        false
        (Journal.would_fit j ~pages:(cap + 1)))
    [ (64, 2); (64, 3); (64, 17); (64, 640); (512, 4); (512, 160); (4096, 512) ]

let test_journal_group_commit_splits () =
  (* 64-byte blocks cap a record at (64-12)/4 = 13 pages: a 30-page
     batch must split into 3 sealed records and replay in order. *)
  let dev = Device.create ~block_size:64 ~blocks:256 () in
  let j = Journal.format dev ~first_block:2 ~blocks:128 in
  check Alcotest.int "three records" 3 (Journal.records_for j ~pages:30);
  let batch =
    List.init 30 (fun i -> (1000 + i, Bytes.make 64 (Char.chr (65 + (i mod 26)))))
  in
  Journal.commit j batch;
  (match Journal.recover j with
  | Journal.Committed pages ->
      check Alcotest.int "all pages replayed" 30 (List.length pages);
      List.iteri
        (fun i (home, data) ->
          check Alcotest.int (Printf.sprintf "home %d in order" i) (1000 + i) home;
          check Alcotest.bytes
            (Printf.sprintf "payload %d" i)
            (Bytes.make 64 (Char.chr (65 + (i mod 26))))
            data)
        pages
  | _ -> Alcotest.fail "expected the committed batch")

let test_journal_unsealed_discarded () =
  (* Crash after the record body but before the header seal: the attach
     sees a clean header and ignores the body. *)
  let dev = mk_dev () in
  let j = Journal.format dev ~first_block:2 ~blocks:64 in
  (* Fail the header write (journal block 2) after the body lands. *)
  let armed = ref false in
  Device.set_fault dev (fun op idx -> !armed && op = Device.Write && idx = 2);
  armed := true;
  (try
     Journal.commit j [ (300, page dev 'q') ];
     Alcotest.fail "seal should have failed"
   with Device.Io_error _ -> ());
  Device.clear_fault dev;
  let j2 = attach_exn dev ~first_block:2 ~blocks:64 in
  check Alcotest.bool "unsealed commit discarded" true
    (Journal.recover j2 = Journal.Clean)

let test_journal_torn_seal () =
  (* The seal write itself tears: the new header's fields land but the
     trailing CRC keeps the old value. Recovery must report Torn_seal —
     never raise — and mark_clean must heal the header. *)
  let dev = mk_dev () in
  let j = Journal.format dev ~first_block:2 ~blocks:64 in
  let pages = [ (100, page dev 'a'); (101, page dev 'b') ] in
  (* commit writes: 1 descriptor + 2 payload blocks, then the seal;
     22 bytes = everything up to (excluding) the header's self-CRC *)
  Device.arm_crash dev ~after_writes:3 ~torn_bytes:22 ();
  (try
     Journal.commit j pages;
     Alcotest.fail "seal should have torn"
   with Device.Io_error _ -> ());
  Device.disarm_crash dev;
  let j2 = attach_exn dev ~first_block:2 ~blocks:64 in
  check Alcotest.bool "torn seal reported" true
    (Journal.recover j2 = Journal.Torn_seal);
  Journal.mark_clean j2;
  check Alcotest.bool "healed" true (Journal.recover j2 = Journal.Clean)

let test_journal_benign_seal_tear () =
  (* A tear inside the seal's first 13 bytes only lands magic + version
     + leading zero bytes of the sequence — byte-identical to the old
     header, so the journal correctly reports the previous state. *)
  let dev = mk_dev () in
  let j = Journal.format dev ~first_block:2 ~blocks:64 in
  Device.arm_crash dev ~after_writes:3 ~torn_bytes:13 ();
  (try
     Journal.commit j [ (100, page dev 'a'); (101, page dev 'b') ];
     Alcotest.fail "seal should have torn"
   with Device.Io_error _ -> ());
  Device.disarm_crash dev;
  let j2 = attach_exn dev ~first_block:2 ~blocks:64 in
  check Alcotest.bool "previous (clean) state in force" true
    (Journal.recover j2 = Journal.Clean)

let test_journal_bad_magic () =
  let dev = mk_dev () in
  match Journal.attach dev ~first_block:2 ~blocks:8 with
  | Ok _ -> Alcotest.fail "expected a typed refusal"
  | Error Journal.Bad_magic -> ()
  | Error reason -> Alcotest.failf "wrong reason: %a" Journal.pp_reason reason

let test_journal_corrupt_sealed_record () =
  (* Bit rot inside a sealed record (a double fault: seal intact, body
     damaged) is a typed Corrupt outcome, not an exception. *)
  let dev = mk_dev () in
  let j = Journal.format dev ~first_block:2 ~blocks:64 in
  Journal.commit j [ (100, page dev 'a'); (200, page dev 'b') ];
  (* Block 2 = header, 3 = descriptor, 4/5 = payload pages. *)
  Device.corrupt_block dev 4 ~byte:17;
  (match Journal.recover j with
  | Journal.Corrupt (Journal.Record_fails_crc { record = 0 }) -> ()
  | r ->
      Alcotest.failf "expected Corrupt, got %s"
        (match r with
        | Journal.Clean -> "Clean"
        | Journal.Committed _ -> "Committed"
        | Journal.Torn_seal -> "Torn_seal"
        | Journal.Corrupt _ -> "Corrupt (other)"));
  (* The descriptor block too. *)
  let dev2 = mk_dev () in
  let j2 = Journal.format dev2 ~first_block:2 ~blocks:64 in
  Journal.commit j2 [ (100, page dev2 'a') ];
  Device.corrupt_block dev2 3 ~byte:5;
  check Alcotest.bool "descriptor rot detected" true
    (match Journal.recover j2 with Journal.Corrupt _ -> true | _ -> false)

(* --- codec property --------------------------------------------------------- *)

let mk_codec_journal () =
  let dev = Device.create ~block_size:64 ~blocks:256 () in
  Journal.format dev ~first_block:2 ~blocks:64

let batch_roundtrips j pages =
  let images = Journal.encode_batch j pages in
  match
    Journal.decode_batch j
      ~records:(Journal.records_for j ~pages:(List.length pages))
      images
  with
  | Error reason -> Alcotest.failf "decode refused: %a" Journal.pp_reason reason
  | Ok decoded ->
      List.length decoded = List.length pages
      && List.for_all2
           (fun (h, d) (h', d') -> h = h' && Bytes.equal d d')
           pages decoded

let test_codec_edge_batches () =
  let j = mk_codec_journal () in
  check Alcotest.bool "empty batch" true (batch_roundtrips j []);
  let cap = Journal.capacity_pages j in
  check Alcotest.bool "capacity exercises splitting" true
    (Journal.records_for j ~pages:cap > 1);
  let max_batch = List.init cap (fun i -> (i * 7, Bytes.make 64 (Char.chr (i land 0xff)))) in
  check Alcotest.bool "max-capacity batch" true (batch_roundtrips j max_batch)

(* The on-device record format: each descriptor's payload CRC is the
   CRC-32 of its page images joined together, however it is computed. *)
let test_record_payload_crc_format () =
  let j = mk_codec_journal () in
  (* 64-byte blocks hold 13 pages per record, so 20 pages make two. *)
  let pages =
    List.init 20 (fun i -> (i, Bytes.init 64 (fun k -> Char.chr (((i * 7) + k) land 0xFF))))
  in
  let joined pages = String.concat "" (List.map (fun (_, d) -> Bytes.to_string d) pages) in
  match Journal.encode_batch j pages with
  | desc0 :: rest ->
      check Alcotest.int "two records" 2 (Journal.records_for j ~pages:20);
      check Alcotest.int32 "first record's payload CRC"
        (Crc32.string (joined (List.filteri (fun i _ -> i < 13) pages)))
        (Bytes.get_int32_be desc0 4);
      check Alcotest.int32 "second record's payload CRC"
        (Crc32.string (joined (List.filteri (fun i _ -> i >= 13) pages)))
        (Bytes.get_int32_be (List.nth rest 13) 4);
      (* So does a descriptor a commit wrote to the device. *)
      let dev = mk_dev () in
      let j = Journal.format dev ~first_block:2 ~blocks:64 in
      let batch = [ (100, page dev 'a'); (200, page dev 'b'); (300, page dev 'c') ] in
      Journal.commit j batch;
      check Alcotest.int32 "committed descriptor's payload CRC"
        (Crc32.string (joined batch))
        (Bytes.get_int32_be (Device.read_block dev 3) 4)
  | [] -> Alcotest.fail "no blocks encoded"

let prop_codec_roundtrip =
  let gen =
    QCheck.Gen.(
      0 -- 58 >>= fun n ->
      list_repeat n
        (pair (0 -- 1_000_000) (map Bytes.of_string (string_size (return 64)))))
  in
  let print pages =
    Printf.sprintf "[%s]"
      (String.concat "; "
         (List.map (fun (h, d) -> Printf.sprintf "(%d, %d bytes)" h (Bytes.length d)) pages))
  in
  QCheck.Test.make ~name:"journal batch encode/decode roundtrip" ~count:100
    (QCheck.make ~print gen)
    (fun pages ->
      let j = mk_codec_journal () in
      batch_roundtrips j pages)

(* --- crash consistency of journaled checkpoints ------------------------------ *)

let populate fs posix =
  P.mkdir_p_exn posix "/data";
  ignore (P.create_file_exn ~content:"checkpoint one content" posix "/data/one");
  Fs.sync_exn ~mode:`Checkpoint fs

let mutate fs posix =
  ignore (P.create_file_exn ~content:"checkpoint two content" posix "/data/two");
  P.write_file_exn posix "/data/one" "rewritten in second checkpoint";
  let oid = P.resolve posix "/data/two" in
  Fs.name_exn fs oid Tag.Udef "fresh"

let verify_first_checkpoint fs2 posix2 =
  check Alcotest.string "old content intact" "checkpoint one content"
    (P.read_file posix2 "/data/one");
  check Alcotest.bool "second file absent" false (P.exists posix2 "/data/two");
  Fs.verify fs2

let verify_second_checkpoint fs2 posix2 =
  check Alcotest.string "rewrite present" "rewritten in second checkpoint"
    (P.read_file posix2 "/data/one");
  check Alcotest.string "new file present" "checkpoint two content"
    (P.read_file posix2 "/data/two");
  check Alcotest.bool "tag present" true
    (Fs.lookup fs2 [ (Tag.Udef, "fresh") ] <> []);
  Fs.verify fs2

let test_crash_before_flush_keeps_old_state () =
  let dev = mk_dev ~block_size:1024 ~blocks:16384 () in
  let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:512 ()) dev in
  check Alcotest.bool "journaled" true (Fs.journaled fs);
  let posix = P.mount fs in
  populate fs posix;
  mutate fs posix;
  (* crash with NO flush: no-steal kept every dirty page off the device *)
  let crashed = snapshot dev in
  let fs2 = Fs.open_existing_exn ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) crashed in
  verify_first_checkpoint fs2 (P.mount fs2)

let test_crash_during_home_writes_replays_journal () =
  let dev = mk_dev ~block_size:1024 ~blocks:16384 () in
  let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:512 ()) dev in
  let posix = P.mount fs in
  populate fs posix;
  mutate fs posix;
  (* Let the journal commit succeed, then crash partway through the
     in-place writes: allow the first 3 home writes, fail the rest.
     (Journal blocks are 2..513; home writes target other blocks.) *)
  let home_writes = ref 0 in
  Device.set_fault dev (fun op idx ->
      op = Device.Write && idx > 513
      && (incr home_writes;
          !home_writes > 3));
  (try
     Fs.sync_exn ~mode:`Checkpoint fs;
     Alcotest.fail "flush should have crashed"
   with Device.Io_error _ -> ());
  Device.clear_fault dev;
  let crashed = snapshot dev in
  (* Reopen: recovery must replay the sealed journal and reach the
     complete second checkpoint despite the torn home writes. *)
  let fs2 = Fs.open_existing_exn ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) crashed in
  verify_second_checkpoint fs2 (P.mount fs2)

let test_clean_flush_then_reopen () =
  let dev = mk_dev ~block_size:1024 ~blocks:16384 () in
  let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:512 ()) dev in
  let posix = P.mount fs in
  populate fs posix;
  mutate fs posix;
  Fs.sync_exn ~mode:`Checkpoint fs;
  let fs2 = Fs.open_existing_exn ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) (snapshot dev) in
  verify_second_checkpoint fs2 (P.mount fs2);
  check Alcotest.bool "reopened journaled" true (Fs.journaled fs2)

let test_recovery_is_idempotent () =
  (* Crash during home writes, recover, then crash AGAIN immediately
     after recovery's own writes and recover once more. *)
  let dev = mk_dev ~block_size:1024 ~blocks:16384 () in
  let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:512 ()) dev in
  let posix = P.mount fs in
  populate fs posix;
  mutate fs posix;
  let home_writes = ref 0 in
  Device.set_fault dev (fun op idx ->
      op = Device.Write && idx > 513
      && (incr home_writes;
          !home_writes > 3));
  (try Fs.sync_exn ~mode:`Checkpoint fs with Device.Io_error _ -> ());
  Device.clear_fault dev;
  let crashed = snapshot dev in
  (* First recovery, but we "crash" again before it can be observed -
     i.e. we just reopen the same snapshot twice. *)
  let fs_a = Fs.open_existing_exn ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) crashed in
  verify_second_checkpoint fs_a (P.mount fs_a);
  let crashed2 = snapshot dev in
  let fs_b = Fs.open_existing_exn ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) crashed2 in
  verify_second_checkpoint fs_b (P.mount fs_b)

let test_oversized_checkpoint_splits_into_phases () =
  (* A dirty set far beyond journal capacity must not raise Journal_full
     with the NO-STEAL pager's dirty pages stranded: flush degrades into
     several individually-journaled phases and completes. *)
  let dev = mk_dev ~block_size:512 ~blocks:8192 () in
  let osd = Osd.format ~config:(Osd.Config.v ~cache_pages:4096 ~journal_pages:8 ()) dev in
  let cap = Osd.journal_capacity_pages osd in
  check Alcotest.bool "tiny journal" true (cap > 0 && cap < 8);
  let oid = Osd.create_object osd in
  let content = String.init 100_000 (fun i -> Char.chr (33 + (i mod 90))) in
  Osd.write osd oid ~off:0 content;
  Osd.flush_exn osd;
  (* No exception, journal clean, and the state is durable. *)
  let osd2 = Osd.open_existing_exn (snapshot dev) in
  check Alcotest.string "content survived" content (Osd.read_all osd2 oid);
  Osd.verify osd2

let test_unjournaled_has_no_journal () =
  let dev = mk_dev ~block_size:1024 ~blocks:4096 () in
  let fs = Fs.format dev in
  check Alcotest.bool "not journaled" false (Fs.journaled fs)

let test_journaled_no_steal_holds_dirty () =
  (* Between flushes, a journaled OSD must not let dirty pages reach the
     device (NO-STEAL) - that is what makes the crash test above pass. *)
  let dev = mk_dev ~block_size:1024 ~blocks:16384 () in
  let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Off ~journal_pages:64 ()) dev in
  Fs.sync_exn ~mode:`Checkpoint fs;
  Device.reset_stats dev;
  let oid = Fs.create_exn fs ~content:(String.make 50_000 'd') in
  ignore oid;
  check Alcotest.int "no device writes before flush" 0
    (Device.stats dev).Device.writes

let suite =
  [
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal empty commit" `Quick test_journal_empty_commit;
    Alcotest.test_case "journal sequence" `Quick test_journal_sequence_advances;
    Alcotest.test_case "journal full" `Quick test_journal_full;
    Alcotest.test_case "capacity arithmetic consistent" `Quick
      test_journal_capacity_consistent;
    Alcotest.test_case "group commit splits into records" `Quick
      test_journal_group_commit_splits;
    Alcotest.test_case "unsealed commit discarded" `Quick
      test_journal_unsealed_discarded;
    Alcotest.test_case "torn seal is typed, then heals" `Quick
      test_journal_torn_seal;
    Alcotest.test_case "benign seal tear reads as previous state" `Quick
      test_journal_benign_seal_tear;
    Alcotest.test_case "journal bad magic" `Quick test_journal_bad_magic;
    Alcotest.test_case "corrupt sealed record is typed" `Quick
      test_journal_corrupt_sealed_record;
    Alcotest.test_case "codec edge batches" `Quick test_codec_edge_batches;
    Alcotest.test_case "record payload CRC covers joined images" `Quick
      test_record_payload_crc_format;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "crash before flush -> old state" `Quick
      test_crash_before_flush_keeps_old_state;
    Alcotest.test_case "crash during home writes -> replay" `Quick
      test_crash_during_home_writes_replays_journal;
    Alcotest.test_case "clean flush + reopen" `Quick test_clean_flush_then_reopen;
    Alcotest.test_case "recovery idempotent" `Quick test_recovery_is_idempotent;
    Alcotest.test_case "oversized checkpoint splits into phases" `Quick
      test_oversized_checkpoint_splits_into_phases;
    Alcotest.test_case "unjournaled fs" `Quick test_unjournaled_has_no_journal;
    Alcotest.test_case "no-steal holds dirty pages" `Quick
      test_journaled_no_steal_holds_dirty;
  ]
