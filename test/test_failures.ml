(* Failure injection across layers: checksummed devices, bit rot,
   image persistence, I/O faults propagating up the stack, and space
   exhaustion behaviour. *)

module Device = Hfad_blockdev.Device
module Pager = Hfad_pager.Pager
module Buddy = Hfad_alloc.Buddy
module Btree = Hfad_btree.Btree
module Osd = Hfad_osd.Osd
module Oid = Hfad_osd.Oid
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module P = Hfad_posix.Posix_fs

let check = Alcotest.check
let oid_t = Alcotest.testable Oid.pp Oid.equal

(* --- device checksums ---------------------------------------------------- *)

let test_checksum_detects_bit_rot () =
  let dev = Device.create ~checksums:true ~block_size:256 ~blocks:16 () in
  Device.write_block dev 3 (Bytes.make 256 'a');
  ignore (Device.read_block dev 3);
  Device.corrupt_block dev 3 ~byte:100;
  Alcotest.check_raises "detected" (Device.Io_error "checksum mismatch at block 3")
    (fun () -> ignore (Device.read_block dev 3));
  (* Rewriting heals the block. *)
  Device.write_block dev 3 (Bytes.make 256 'b');
  check Alcotest.bytes "healed" (Bytes.make 256 'b') (Device.read_block dev 3)

let test_no_checksums_silent_corruption () =
  let dev = Device.create ~block_size:256 ~blocks:16 () in
  Device.write_block dev 3 (Bytes.make 256 'a');
  Device.corrupt_block dev 3 ~byte:0;
  (* Reads succeed but return damaged data - the failure mode checksums
     exist to prevent. *)
  let data = Device.read_block dev 3 in
  check Alcotest.bool "silently wrong" true (Bytes.get data 0 <> 'a')

let test_corrupt_block_validation () =
  let dev = Device.create ~block_size:256 ~blocks:4 () in
  (try
     Device.corrupt_block dev 0 ~byte:0;
     Alcotest.fail "unwritten block accepted"
   with Invalid_argument _ -> ());
  Device.write_block dev 0 (Bytes.make 256 'x');
  try
    Device.corrupt_block dev 0 ~byte:999;
    Alcotest.fail "bad byte accepted"
  with Invalid_argument _ -> ()

let test_checksummed_fs_end_to_end () =
  (* A whole hFAD instance over a checksummed device: normal operation is
     unaffected; flipping one stored bit surfaces as Io_error on access. *)
  let dev = Device.create ~checksums:true ~block_size:1024 ~blocks:8192 () in
  let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) dev in
  let oid = Fs.create_exn fs ~content:(String.make 50_000 'z') in
  check Alcotest.int "size" 50_000 (Fs.size fs oid);
  Fs.sync_exn ~mode:`Checkpoint fs;
  (* Find a materialized data block (beyond the metadata region) and rot it. *)
  let target = ref (-1) in
  (try
     for b = 100 to 8191 do
       match Device.corrupt_block dev b ~byte:7 with
       | () ->
           target := b;
           raise Exit
       | exception Invalid_argument _ -> ()
     done
   with Exit -> ());
  check Alcotest.bool "found a block to corrupt" true (!target >= 0);
  (* A cold read of everything must hit the bad block. *)
  Pager.invalidate (Osd.pager (Fs.osd fs));
  (try
     ignore (Fs.read_all fs oid);
     (* The corrupted block may belong to an index page instead; touch
        those too. *)
     Fs.verify fs;
     Alcotest.fail "corruption went undetected"
   with Device.Io_error msg ->
     check Alcotest.bool "mentions checksum" true
       (Hfad_util.Strx.starts_with ~prefix:"checksum mismatch" msg))

(* --- image save / load ----------------------------------------------------- *)

let test_image_roundtrip () =
  let path = Filename.temp_file "hfad_test" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let dev = Device.create ~block_size:512 ~blocks:1024 () in
      let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) dev in
      let posix = P.mount fs in
      P.mkdir_p_exn posix "/docs";
      ignore (P.create_file_exn ~content:"persisted across processes" posix "/docs/a");
      let oid = P.resolve posix "/docs/a" in
      Fs.name_exn fs oid Tag.Udef "important";
      Fs.sync_exn ~mode:`Checkpoint fs;
      Device.save dev path;
      (* Fresh process simulation: load image, reopen, verify all state. *)
      let dev2 = Device.load path in
      let fs2 = Fs.open_existing_exn dev2 in
      let posix2 = P.mount fs2 in
      check Alcotest.string "content" "persisted across processes"
        (P.read_file posix2 "/docs/a");
      check Alcotest.bool "tag survived" true
        (Fs.lookup fs2 [ (Tag.Udef, "important") ] <> []);
      check Alcotest.bool "search survived" true
        (Fs.search fs2 "persisted" <> []);
      Fs.verify fs2)

let test_image_sparse () =
  let path = Filename.temp_file "hfad_test" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* A huge, almost-empty device saves small. *)
      let dev = Device.create ~block_size:4096 ~blocks:1_000_000 () in
      Device.write_block dev 0 (Bytes.make 4096 'x');
      Device.save dev path;
      let size = (Unix.stat path).Unix.st_size in
      check Alcotest.bool "sparse image" true (size < 100_000))

let test_image_rejects_garbage () =
  let path = Filename.temp_file "hfad_test" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "not an image at all";
      close_out oc;
      try
        ignore (Device.load path);
        Alcotest.fail "garbage accepted"
      with Device.Io_error _ -> ())

let test_image_missing_file () =
  try
    ignore (Device.load "/nonexistent/path/disk.img");
    Alcotest.fail "missing file accepted"
  with Device.Io_error _ -> ()

(* Two swapped slots still point at entries, so reads go on; the image
   check must see them in every named tree, the attribute tree and one
   that no index reads. *)
let test_bad_directory_fails_verify () =
  List.iter
    (fun tree ->
      let dev = Device.create ~block_size:512 ~blocks:1024 () in
      let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) dev in
      let osd = Fs.osd_of_shard fs 0 in
      let spare = Osd.named_tree osd "spare" in
      List.iter
        (fun name ->
          ignore (Fs.create_exn fs ~names:[ (Tag.Udef, name) ] ~content:"");
          Btree.put spare ~key:name ~value:"")
        [ "a"; "b"; "c" ];
      Fs.verify fs;
      Pager.with_page_mut (Osd.pager osd) (List.assoc tree (Osd.named_roots osd))
        (fun page ->
          let slot i = Bytes.length page - (2 * (i + 1)) in
          let first = Bytes.get_uint16_be page (slot 0) in
          Bytes.set_uint16_be page (slot 0) (Bytes.get_uint16_be page (slot 1));
          Bytes.set_uint16_be page (slot 1) first);
      match Fs.verify fs with
      | () -> Alcotest.failf "swapped slots in %s passed Fs.verify" tree
      | exception Failure _ -> ())
    [ "attrs"; "spare" ]

(* A checkpointed image whose superblock says version 1 (B-tree pages
   without a slot directory) is refused by name, before anything is
   written, with and without a journal. *)
let test_image_old_version_refused () =
  List.iter
    (fun journal_pages ->
      let path = Filename.temp_file "hfad_test" ".img" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let dev = Device.create ~block_size:512 ~blocks:1024 () in
          let fs =
            Fs.format ~config:(Fs.Config.v ~journal_pages ~index_mode:Fs.Eager ()) dev
          in
          ignore (Fs.create_exn fs ~names:[ (Tag.Udef, "old") ] ~content:"old layout");
          Fs.sync_exn ~mode:`Checkpoint fs;
          Fs.close fs;
          (* The version is the u32 after the superblock's 8-byte magic. *)
          let super = Device.read_block dev 0 in
          Bytes.set_int32_be super 8 1l;
          Device.write_block dev 0 super;
          Device.save dev path;
          let old = Device.load path in
          let what = Printf.sprintf "journal_pages %d" journal_pages in
          (match Fs.open_existing old with
          | Ok _ -> Alcotest.failf "%s: a version-1 image opened" what
          | Error e ->
              let msg = Fs.error_message e in
              check Alcotest.bool
                (Printf.sprintf "%s: %S names version 1" what msg)
                true
                (String.ends_with ~suffix:"unsupported version 1" msg));
          check Alcotest.int (what ^ ": no device write") 0
            (Device.stats old).Device.writes))
    [ 0; 64 ]

(* --- fault propagation -------------------------------------------------------- *)

let test_write_fault_propagates_through_osd () =
  let dev = Device.create ~block_size:1024 ~blocks:4096 () in
  let osd = Osd.format ~config:(Osd.Config.v ~cache_pages:8 ()) dev in
  let oid = Osd.create_object osd in
  Osd.write osd oid ~off:0 "healthy write";
  (* Fail every device write: the next pager write-back must surface. *)
  Device.set_fault dev (fun op _ -> op = Device.Write);
  (try
     (* A small cache forces evictions, so a large write hits the device. *)
     Osd.write osd oid ~off:0 (String.make 100_000 'x');
     Osd.flush_exn osd;
     Alcotest.fail "fault swallowed"
   with Device.Io_error _ -> ());
  Device.clear_fault dev

let test_read_fault_propagates_through_fs () =
  let dev = Device.create ~block_size:1024 ~blocks:4096 () in
  let fs = Fs.format ~config:(Fs.Config.v ~cache_pages:16 ~index_mode:Fs.Off ()) dev in
  let oid = Fs.create_exn fs ~content:(String.make 60_000 'q') in
  Fs.sync_exn ~mode:`Checkpoint fs;
  Pager.invalidate (Osd.pager (Fs.osd fs));
  Device.set_fault dev (fun op _ -> op = Device.Read);
  (try
     ignore (Fs.read_all fs oid);
     Alcotest.fail "fault swallowed"
   with Device.Io_error _ -> ());
  Device.clear_fault dev;
  (* After the fault clears, the data is intact. *)
  check Alcotest.string "recovered" (String.make 60_000 'q') (Fs.read_all fs oid)

(* --- space exhaustion ------------------------------------------------------------ *)

let test_osd_out_of_space () =
  let dev = Device.create ~block_size:1024 ~blocks:64 () in
  let osd = Osd.format ~config:(Osd.Config.v ~cache_pages:32 ()) dev in
  let oid = Osd.create_object osd in
  (try
     Osd.write osd oid ~off:0 (String.make 1_000_000 'x');
     Alcotest.fail "expected exhaustion"
   with Buddy.Out_of_space _ -> ());
  (* The allocator still works for small requests afterwards. *)
  let o2 = Osd.create_object osd in
  Osd.write osd o2 ~off:0 "small is fine";
  check Alcotest.string "usable after ENOSPC" "small is fine" (Osd.read_all osd o2)

(* --- exhaustive crash-point sweep ----------------------------------------- *)

(* The tentpole crash-consistency harness: build a journaled instance,
   checkpoint once, mutate, then for EVERY device write the second
   checkpoint performs, crash exactly there (power cut or torn write),
   pull the disk, re-attach, and demand that recovery (a) never throws
   and (b) lands in exactly the pre- or post-checkpoint state, verified
   structurally. *)

let snapshot dev =
  let path = Filename.temp_file "hfad_sweep" ".img" in
  Device.save dev path;
  let copy = Device.load path in
  Sys.remove path;
  copy

let build_scenario () =
  let dev = Device.create ~block_size:512 ~blocks:8192 () in
  let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:128 ()) dev in
  let posix = P.mount fs in
  P.mkdir_p_exn posix "/data";
  ignore (P.create_file_exn ~content:"checkpoint one content" posix "/data/one");
  Fs.sync_exn ~mode:`Checkpoint fs;
  (* Second-checkpoint mutations: a new file, a rewrite, and no flush
     yet - NO-STEAL keeps all of it off the device until the next
     checkpoint. *)
  ignore (P.create_file_exn ~content:"checkpoint two content" posix "/data/two");
  P.write_file_exn posix "/data/one" "rewritten in second checkpoint";
  (dev, fs)

let reopen dev = Fs.open_existing_exn ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) dev

(* Recovery must land in exactly one of the two checkpoint states. *)
let classify_and_verify fs posix =
  let state =
    if P.exists posix "/data/two" then begin
      check Alcotest.string "post: rewrite present"
        "rewritten in second checkpoint"
        (P.read_file posix "/data/one");
      check Alcotest.string "post: new file complete" "checkpoint two content"
        (P.read_file posix "/data/two");
      `Post
    end
    else begin
      check Alcotest.string "pre: old content intact" "checkpoint one content"
        (P.read_file posix "/data/one");
      `Pre
    end
  in
  Fs.verify fs;
  state

let count_writes dev f =
  let n = ref 0 in
  Device.set_fault dev (fun op _ ->
      if op = Device.Write then incr n;
      false);
  f ();
  Device.clear_fault dev;
  !n

let sweep_checkpoint ?torn_bytes () =
  let total =
    let dev, fs = build_scenario () in
    count_writes dev (fun () -> Fs.sync_exn ~mode:`Checkpoint fs)
  in
  check Alcotest.bool "checkpoint performs writes" true (total > 0);
  let pre = ref 0 and post = ref 0 in
  for i = 0 to total - 1 do
    let dev, fs = build_scenario () in
    Device.arm_crash dev ~after_writes:i ?torn_bytes ();
    (try
       Fs.sync_exn ~mode:`Checkpoint fs;
       Alcotest.failf "crash point %d/%d never hit" i total
     with Device.Io_error _ -> ());
    (* Pull the disk from the dead machine and re-attach. *)
    let fs2 = reopen (snapshot dev) in
    let state = classify_and_verify fs2 (P.mount fs2) in
    (match state with `Pre -> incr pre | `Post -> incr post);
    (* Re-recovery idempotence: recover the already-recovered image
       again; it must land in the same state. *)
    let fs3 = reopen (snapshot (Fs.device fs2)) in
    let state' = classify_and_verify fs3 (P.mount fs3) in
    if state <> state' then
      Alcotest.failf "crash point %d/%d: re-recovery changed the state" i total
  done;
  (* The sweep must have seen both sides of the commit point. *)
  check Alcotest.bool "some crashes land pre-checkpoint" true (!pre > 0);
  check Alcotest.bool "some crashes land post-checkpoint" true (!post > 0);
  Printf.printf "crash sweep (%s): %d crash points, %d pre / %d post\n%!"
    (match torn_bytes with
    | None -> "writes dropped"
    | Some k -> Printf.sprintf "torn after %d bytes" k)
    total !pre !post

let test_crash_sweep_dropped_writes () = sweep_checkpoint ()

(* 13 bytes tears a journal-header seal inside its sequence field (a
   prefix byte-identical to the old header: the benign tear). *)
let test_crash_sweep_torn_13 () = sweep_checkpoint ~torn_bytes:13 ()

(* 22 bytes lands every header field but not the trailing self-CRC: the
   genuinely torn seal, which recovery must detect and heal. *)
let test_crash_sweep_torn_22 () = sweep_checkpoint ~torn_bytes:22 ()

let test_crash_sweep_during_recovery () =
  (* Crash mid-checkpoint after the seal, then crash AGAIN at every write
     recovery itself performs. Whatever the interleaving, the sealed
     journal must eventually carry the system to the post state. *)
  let total =
    let dev, fs = build_scenario () in
    count_writes dev (fun () -> Fs.sync_exn ~mode:`Checkpoint fs)
  in
  let dev, fs = build_scenario () in
  (* total - 2 is deep into the home writes: the journal seal is long
     since durable, so recovery has real replay work to do. *)
  Device.arm_crash dev ~after_writes:(total - 2) ();
  (try Fs.sync_exn ~mode:`Checkpoint fs with Device.Io_error _ -> ());
  let base = snapshot dev in
  check Alcotest.bool "scenario crashed post-seal" true
    (let fs2 = reopen (snapshot base) in
     classify_and_verify fs2 (P.mount fs2) = `Post);
  let recovery_writes =
    let c = snapshot base in
    count_writes c (fun () -> ignore (reopen c))
  in
  check Alcotest.bool "recovery performs writes" true (recovery_writes > 0);
  for j = 0 to recovery_writes - 1 do
    let c = snapshot base in
    (* Alternate dropped and torn-seal-style crashes across the sweep. *)
    let torn_bytes = if j land 1 = 1 then Some 22 else None in
    Device.arm_crash c ~after_writes:j ?torn_bytes ();
    (try
       ignore (reopen c);
       Alcotest.failf "recovery write %d/%d never hit" j recovery_writes
     with Device.Io_error _ -> ());
    let fs3 = reopen (snapshot c) in
    match classify_and_verify fs3 (P.mount fs3) with
    | `Post -> ()
    | `Pre ->
        Alcotest.failf "crash at recovery write %d/%d lost the sealed commit" j
          recovery_writes
  done;
  Printf.printf "re-recovery sweep: %d crash points, all land post\n%!"
    recovery_writes

(* --- group-commit crash sweep ---------------------------------------------- *)

(* The write pipeline's durability contract under the same exhaustive
   sweep: crash at EVERY device write of a daemon-issued group commit.
   Two obligations. (1) A barrier that returns an error leaves the system
   in a valid pre- or post-batch state — never torn. (2) A mutation
   acknowledged by a successful barrier is NEVER lost, no matter where a
   later commit crashes. Thresholds are set unreachable so the barrier
   alone decides when the daemon commits — making every run of the sweep
   hit the same deterministic write sequence. *)

let build_pipelined_scenario () =
  let dev = Device.create ~block_size:512 ~blocks:8192 () in
  let fs =
    Fs.format
      ~config:
        (Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:128
           ~batch_max_pages:1_000_000 ~batch_max_age:3600.0 ())
      dev
  in
  Fs.start_pipeline fs;
  let posix = P.mount fs in
  P.mkdir_p_exn posix "/data";
  ignore (P.create_file_exn ~content:"checkpoint one content" posix "/data/one");
  (match Fs.sync fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup barrier failed: %s" (Fs.error_message e));
  (* Batch two, acknowledged but not yet durable. *)
  ignore (P.create_file_exn ~content:"checkpoint two content" posix "/data/two");
  P.write_file_exn posix "/data/one" "rewritten in second checkpoint";
  (dev, fs)

let sweep_group_commit ?torn_bytes () =
  let total =
    let dev, fs = build_pipelined_scenario () in
    let n = count_writes dev (fun () -> Fs.sync_exn fs) in
    Fs.stop_pipeline fs;
    n
  in
  check Alcotest.bool "group commit performs writes" true (total > 0);
  let pre = ref 0 and post = ref 0 in
  for i = 0 to total - 1 do
    let dev, fs = build_pipelined_scenario () in
    Device.arm_crash dev ~after_writes:i ?torn_bytes ();
    (* The daemon hits the crash; the barrier must report it as a typed
       error, never an exception, and never claim durability. *)
    (match Fs.sync fs with
    | Ok () -> Alcotest.failf "crash point %d/%d: barrier claimed durability" i total
    | Error (Fs.Io _) -> ()
    | Error e ->
        Alcotest.failf "crash point %d/%d: unexpected error %s" i total
          (Fs.error_message e));
    Fs.stop_pipeline fs;
    (* Pull the disk and re-attach: valid pre- or post-batch state only. *)
    let fs2 = reopen (snapshot dev) in
    let state = classify_and_verify fs2 (P.mount fs2) in
    (match state with `Pre -> incr pre | `Post -> incr post);
    (* Recovery idempotence, as for the synchronous sweep. *)
    let fs3 = reopen (snapshot (Fs.device fs2)) in
    if classify_and_verify fs3 (P.mount fs3) <> state then
      Alcotest.failf "crash point %d/%d: re-recovery changed the state" i total
  done;
  check Alcotest.bool "some crashes land pre-batch" true (!pre > 0);
  check Alcotest.bool "some crashes land post-batch" true (!post > 0);
  Printf.printf "group-commit sweep (%s): %d crash points, %d pre / %d post\n%!"
    (match torn_bytes with
    | None -> "writes dropped"
    | Some k -> Printf.sprintf "torn after %d bytes" k)
    total !pre !post

let test_group_commit_sweep_dropped () = sweep_group_commit ()
let test_group_commit_sweep_torn () = sweep_group_commit ~torn_bytes:22 ()

let test_barrier_acked_never_lost () =
  (* Make batch two durable through a successful barrier, then mutate a
     THIRD batch and crash at every write of its commit (alternating
     dropped/torn). Whatever happens to batch three, batch two must
     survive: barrier acknowledgment is a durability promise. *)
  let build () =
    let dev, fs = build_pipelined_scenario () in
    Fs.sync_exn fs;  (* batch two durable *)
    let posix = P.mount fs in
    P.write_file_exn posix "/data/one" "third batch content";
    ignore (P.create_file_exn ~content:"ephemeral" posix "/data/three");
    (dev, fs)
  in
  let total =
    let dev, fs = build () in
    let n = count_writes dev (fun () -> Fs.sync_exn fs) in
    Fs.stop_pipeline fs;
    n
  in
  check Alcotest.bool "third commit performs writes" true (total > 0);
  for i = 0 to total - 1 do
    let dev, fs = build () in
    let torn_bytes = if i land 1 = 1 then Some 22 else None in
    Device.arm_crash dev ~after_writes:i ?torn_bytes ();
    (match Fs.sync fs with
    | Ok () -> Alcotest.failf "crash point %d/%d: barrier claimed durability" i total
    | Error _ -> ());
    Fs.stop_pipeline fs;
    let fs2 = reopen (snapshot dev) in
    let posix2 = P.mount fs2 in
    (* Batch two — acknowledged by a successful barrier — must be intact. *)
    check Alcotest.string "barrier-acked new file survives"
      "checkpoint two content"
      (P.read_file posix2 "/data/two");
    let one = P.read_file posix2 "/data/one" in
    if
      one <> "rewritten in second checkpoint" && one <> "third batch content"
    then
      Alcotest.failf "crash point %d/%d: barrier-acked rewrite lost (%S)" i
        total one;
    (* Batch three is all-or-nothing with the rewrite it shares a
       commit with. *)
    (match P.exists posix2 "/data/three" with
    | true ->
        check Alcotest.string "third batch atomic" "third batch content" one;
        check Alcotest.string "third file complete" "ephemeral"
          (P.read_file posix2 "/data/three")
    | false ->
        check Alcotest.string "third batch absent atomically"
          "rewritten in second checkpoint" one);
    Fs.verify fs2
  done;
  Printf.printf
    "barrier-acked sweep: %d crash points, batch two survived all\n%!" total

(* --- crash sweep over a many-document drain ----------------------------------

   A lazy stack whose checkpoint drains 20 documents that share common
   words in one sorted pass over the full-text tree (a barrier seals
   without draining; a checkpoint drains, then seals). On 512-byte pages
   the pass splits postings leaves, and the checkpoint journals tens of
   dirty frames in place. Crash at every write of that checkpoint,
   dropped and torn: recovery lands pre or post under [Fs.verify],
   re-recovery lands in the same state, and a search for a shared term
   returns exactly the pre set or exactly the post set. *)

let drain_places = [| "harbor"; "lantern"; "meadow"; "orchard"; "quarry"; "willow" |]

let drain_text i =
  Printf.sprintf "shared ledger %s %s entry%d common notes" drain_places.(i mod 6)
    drain_places.(i * 5 mod 6) i

let build_drain_scenario () =
  let dev = Device.create ~block_size:512 ~blocks:2048 () in
  let fs =
    Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Lazy ~journal_pages:256 ()) dev
  in
  let create i = Fs.create_exn fs ~content:(drain_text i) in
  let pre = List.init 4 create in
  (match Fs.sync ~mode:`Checkpoint fs with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup checkpoint failed: %s" (Fs.error_message e));
  let post = pre @ List.init 20 (fun i -> create (4 + i)) in
  (dev, fs, pre, post)

let classify_drain fs ~pre ~post =
  Fs.verify fs;
  let found = List.sort Oid.compare (List.map fst (Fs.search fs "shared ledger")) in
  if List.equal Oid.equal found pre then `Pre
  else if List.equal Oid.equal found post then begin
    check Alcotest.string "post: the last document whole" (drain_text 23)
      (Fs.read_all fs (List.nth post 23));
    `Post
  end
  else
    Alcotest.failf "search found %d documents: neither the %d before nor the %d after"
      (List.length found) (List.length pre) (List.length post)

let sweep_drain_commit ?torn_bytes () =
  let reopen dev = Fs.open_existing_exn ~config:(Fs.Config.v ~index_mode:Fs.Lazy ()) dev in
  let total =
    let dev, fs, _, _ = build_drain_scenario () in
    count_writes dev (fun () -> Fs.sync_exn ~mode:`Checkpoint fs)
  in
  check Alcotest.bool "the commit journals tens of frames" true (total >= 40);
  let pre_n = ref 0 and post_n = ref 0 in
  for i = 0 to total - 1 do
    let dev, fs, pre, post = build_drain_scenario () in
    Device.arm_crash dev ~after_writes:i ?torn_bytes ();
    (match Fs.sync ~mode:`Checkpoint fs with
    | Ok () -> Alcotest.failf "crash point %d/%d: checkpoint claimed durability" i total
    | Error (Fs.Io _) -> ()
    | Error e ->
        Alcotest.failf "crash point %d/%d: unexpected error %s" i total
          (Fs.error_message e));
    let fs2 = reopen (snapshot dev) in
    let state = classify_drain fs2 ~pre ~post in
    (match state with `Pre -> incr pre_n | `Post -> incr post_n);
    let fs3 = reopen (snapshot (Fs.device fs2)) in
    if classify_drain fs3 ~pre ~post <> state then
      Alcotest.failf "crash point %d/%d: re-recovery changed the state" i total
  done;
  check Alcotest.bool "some crashes land pre-drain" true (!pre_n > 0);
  check Alcotest.bool "some crashes land post-drain" true (!post_n > 0);
  Printf.printf "drain-commit sweep (%s): %d crash points, %d pre / %d post\n%!"
    (match torn_bytes with
    | None -> "writes dropped"
    | Some k -> Printf.sprintf "torn after %d bytes" k)
    total !pre_n !post_n

let test_drain_commit_sweep () =
  sweep_drain_commit ();
  sweep_drain_commit ~torn_bytes:22 ()

(* --- crash sweeps over seals without a reindex --------------------------------

   A mutation's mark is a key in the full-text tree, sealed with the
   mutation; the index catches up later. Two seals carry marks without
   a reindex, or a reindex without its mutations: a barrier's group
   commit (overwrites and their marks), and the pipeline daemon's drain
   step (one chunk's index pages and the removal of its marks). Crash at
   every write of each, dropped and torn. Recovery lands pre or post,
   re-recovery lands in the same state, the recovered marks are exactly
   the objects the recovered index has not caught up with, and after
   [Fs.drain_index] the full-text bindings (marks aside) equal a fresh
   index of the recovered bytes. *)

let marked fs =
  List.sort Oid.compare
    (Hfad_fulltext.Fulltext.marked
       (Hfad_index.Index_store.fulltext (Fs.index_of_shard fs 0)))

let index_bindings fs =
  Btree.to_list (Osd.named_tree (Fs.osd_of_shard fs 0) "fulltext")
  |> List.filter (fun (k, _) -> k.[0] <> 'X')

(* The bindings a fresh index of [docs] holds. *)
let fresh_bindings docs =
  let dev = Device.create ~block_size:1024 ~blocks:8192 () in
  let pager = Pager.create ~cache_pages:256 dev in
  let buddy = Buddy.create ~first_block:0 ~blocks:8192 () in
  let alloc =
    {
      Btree.alloc_page = (fun () -> Buddy.alloc buddy 1);
      Btree.free_page = (fun p -> Buddy.free buddy p);
    }
  in
  let tree = Btree.create pager alloc ~root:(Buddy.alloc buddy 1) in
  Hfad_fulltext.Fulltext.index_batch (Hfad_fulltext.Fulltext.create tree)
    (List.map (fun (oid, text) -> (oid, Some text)) docs);
  Btree.to_list tree

(* A recovered image, drained: its index is a fresh index of its bytes. *)
let check_catches_up label fs =
  Fs.drain_index fs;
  check Alcotest.int (label ^ ": nothing left marked") 0 (Fs.index_backlog fs);
  check (Alcotest.list oid_t) (label ^ ": no mark key left") [] (marked fs);
  let docs = List.map (fun oid -> (oid, Fs.read_all fs oid)) (Fs.objects fs) in
  if index_bindings fs <> fresh_bindings docs then
    Alcotest.failf "%s: the drained index differs from a fresh index" label;
  Fs.verify fs

let seal_config =
  Fs.Config.v ~index_mode:Fs.Lazy ~journal_pages:256 ~batch_max_pages:1_000_000
    ~batch_max_age:3600.0 ()

(* Sweep [build]'s seal, run by [seal] (which must report the crash as
   an I/O error); [classify] names the recovered state and checks its
   marks. *)
let sweep_seal ~name ~build ~seal ~classify ?torn_bytes () =
  let reopen dev = Fs.open_existing_exn ~config:(Fs.Config.v ~index_mode:Fs.Lazy ()) dev in
  let total =
    let dev, fs, _ = build () in
    count_writes dev (fun () -> ignore (seal fs))
  in
  check Alcotest.bool (name ^ " writes") true (total > 0);
  let pre_n = ref 0 and post_n = ref 0 in
  for i = 0 to total - 1 do
    let dev, fs, expect = build () in
    Device.arm_crash dev ~after_writes:i ?torn_bytes ();
    (match seal fs with
    | Error (Fs.Io _) -> ()
    | Ok () -> Alcotest.failf "%s crash point %d/%d: claimed durability" name i total
    | Error e ->
        Alcotest.failf "%s crash point %d/%d: unexpected error %s" name i total
          (Fs.error_message e));
    let fs2 = reopen (snapshot dev) in
    let state = classify fs2 expect in
    (match state with `Pre -> incr pre_n | `Post -> incr post_n);
    let fs3 = reopen (snapshot (Fs.device fs2)) in
    if classify fs3 expect <> state then
      Alcotest.failf "%s crash point %d/%d: re-recovery changed the state" name i total;
    check_catches_up (Printf.sprintf "%s crash point %d/%d" name i total) fs3
  done;
  check Alcotest.bool (name ^ ": some crashes land pre") true (!pre_n > 0);
  check Alcotest.bool (name ^ ": some crashes land post") true (!post_n > 0);
  Printf.printf "%s sweep (%s): %d crash points, %d pre / %d post\n%!" name
    (match torn_bytes with
    | None -> "writes dropped"
    | Some k -> Printf.sprintf "torn after %d bytes" k)
    total !pre_n !post_n

(* (i) A barrier commit sealing three overwrites and their marks, with
   nothing drained: pre, the old bytes and no mark; post, the new bytes
   and exactly the three marks. *)
let overwrite_text i = Printf.sprintf "rewritten ledger %s entry%d" drain_places.(i mod 6) i

let build_overwrites () =
  let dev = Device.create ~block_size:512 ~blocks:2048 () in
  let fs = Fs.format ~config:seal_config dev in
  let oids = List.init 6 (fun i -> Fs.create_exn fs ~content:(drain_text i)) in
  Fs.sync_exn ~mode:`Checkpoint fs;
  Fs.start_pipeline fs;
  let rewritten = List.filteri (fun i _ -> i mod 2 = 1) oids in
  List.iteri
    (fun i oid ->
      Fs.truncate_exn fs oid 0;
      Fs.write_exn fs oid ~off:0 (overwrite_text i))
    rewritten;
  check Alcotest.int "three marked" 3 (Fs.index_backlog fs);
  (dev, fs, rewritten)

let classify_overwrites fs rewritten =
  let holds text = List.mapi (fun i oid -> Fs.read_all fs oid = text i) rewritten in
  let state, marks =
    if List.for_all Fun.id (holds overwrite_text) then (`Post, rewritten)
    else if List.for_all Fun.id (holds (fun i -> drain_text ((2 * i) + 1))) then
      (`Pre, [])
    else Alcotest.fail "the overwrites recovered neither all old nor all new"
  in
  check (Alcotest.list oid_t) "the recovered marks" marks (marked fs);
  check Alcotest.int "the recovered backlog" (List.length marks) (Fs.index_backlog fs);
  Fs.verify fs;
  state

let seal_barrier fs =
  let r = Fs.sync fs in
  Fs.stop_pipeline fs;
  r

let test_barrier_seal_sweep () =
  List.iter
    (fun torn_bytes ->
      sweep_seal ~name:"barrier-seal" ~build:build_overwrites ~seal:seal_barrier
        ~classify:classify_overwrites ?torn_bytes ())
    [ None; Some 22 ]

(* (ii) The daemon's drain step: 70 marked creates are sealed without
   the pipeline; then, with it running, one name (no mark) makes the
   barrier's commit, after which the daemon drains one chunk (the 64
   lowest OIDs) and seals it. Pre, all 70 marked and none indexed;
   post, the 6 highest marked and the chunk indexed. A crash in the
   barrier's own commit lands pre. *)
let step_docs = Hfad_index.Index_store.drain_chunk + 6

let build_step () =
  let dev = Device.create ~block_size:1024 ~blocks:4096 () in
  let fs = Fs.format ~config:seal_config dev in
  let oids =
    List.init step_docs (fun i ->
        Fs.create_exn fs ~content:(Printf.sprintf "%s note%d" drain_places.(i mod 6) i))
  in
  Fs.sync_exn fs;
  Fs.start_pipeline fs;
  Fs.name_exn fs (List.hd oids) Tag.Udef "step";
  (dev, fs, oids)

(* The barrier's commit, then the step it lets run: wait until the
   step's drain has applied (the backlog falls), then stop the daemon,
   which joins the step's seal. A crash in that seal leaves the device
   dead. *)
let seal_step fs =
  let barrier = Fs.sync fs in
  let deadline = Unix.gettimeofday () +. 10. in
  while
    Result.is_ok barrier
    && Fs.index_backlog fs >= Hfad_index.Index_store.drain_chunk
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.001
  done;
  Fs.stop_pipeline fs;
  match barrier with
  | Error _ as e -> e
  | Ok () when Device.crashed (Fs.device fs) -> Error (Fs.Io "crashed in the drain step")
  | Ok () ->
      check Alcotest.int "the step drained one chunk" (step_docs - Hfad_index.Index_store.drain_chunk)
        (Fs.index_backlog fs);
      Ok ()

let classify_step fs oids =
  let chunk = List.filteri (fun i _ -> i < Hfad_index.Index_store.drain_chunk) oids in
  let rest = List.filteri (fun i _ -> i >= Hfad_index.Index_store.drain_chunk) oids in
  let marks = marked fs in
  let state =
    if marks = oids then `Pre
    else if marks = rest then `Post
    else Alcotest.failf "%d recovered marks: neither all %d nor the last %d"
        (List.length marks) (List.length oids) (List.length rest)
  in
  check Alcotest.int "the recovered backlog" (List.length marks) (Fs.index_backlog fs);
  let ft = Hfad_index.Index_store.fulltext (Fs.index_of_shard fs 0) in
  List.iter
    (fun oid ->
      check Alcotest.bool "the chunk indexed iff post" (state = `Post)
        (Hfad_fulltext.Fulltext.is_indexed ft oid))
    chunk;
  Fs.verify fs;
  state

(* --- sharded crash sweep --------------------------------------------------- *)

(* Scale-out failure isolation: a 2-shard instance flushes both shards'
   journals back to back; crash at EVERY device write of that global
   flush (dropped or torn). Each shard must independently recover to its
   own pre- or post-checkpoint state — in particular, when the crash
   tears the SECOND shard's journal mid-commit, the first shard's
   already-sealed commit survives untouched: one shard's torn journal
   never bleeds into another's recovery. *)

let pre_zero = "shard zero checkpoint one."
let post_zero = "shard zero checkpoint TWO!"
let pre_one = "shard one  checkpoint one."
let post_one = "shard one  checkpoint TWO!"

let build_sharded_scenario () =
  let dev = Device.create ~block_size:512 ~blocks:16384 () in
  let fs =
    Fs.format
      ~config:(Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:64 ~shards:2 ())
      dev
  in
  (* Unnamed objects place round-robin: one object per shard. *)
  let a = Fs.create_exn fs ~content:pre_zero in
  let b = Fs.create_exn fs ~content:pre_one in
  check Alcotest.int "a on shard 0" 0 (Fs.shard_of_oid fs a);
  check Alcotest.int "b on shard 1" 1 (Fs.shard_of_oid fs b);
  Fs.sync_exn ~mode:`Checkpoint fs;
  (* Checkpoint-two mutations on BOTH shards, not yet flushed. *)
  Fs.write_exn fs a ~off:0 post_zero;
  Fs.write_exn fs b ~off:0 post_one;
  (dev, fs, a, b)

let classify_shard fs oid ~pre ~post label =
  let content = Fs.read_all fs oid in
  if String.equal content post then `Post
  else if String.equal content pre then `Pre
  else Alcotest.failf "%s recovered to torn content %S" label content

let sweep_sharded ?torn_bytes () =
  let total =
    let dev, fs, _, _ = build_sharded_scenario () in
    count_writes dev (fun () -> Fs.sync_exn ~mode:`Checkpoint fs)
  in
  check Alcotest.bool "global flush performs writes" true (total > 0);
  let mixed = ref 0 and states = ref [] in
  for i = 0 to total - 1 do
    let dev, fs, a, b = build_sharded_scenario () in
    Device.arm_crash dev ~after_writes:i ?torn_bytes ();
    (try
       Fs.sync_exn ~mode:`Checkpoint fs;
       Alcotest.failf "crash point %d/%d never hit" i total
     with Device.Io_error _ -> ());
    let fs2 = reopen (snapshot dev) in
    check Alcotest.int "still two shards" 2 (Fs.shard_count fs2);
    let sa = classify_shard fs2 a ~pre:pre_zero ~post:post_zero "shard 0" in
    let sb = classify_shard fs2 b ~pre:pre_one ~post:post_one "shard 1" in
    Fs.verify fs2;
    if sa <> sb then incr mixed;
    states := (sa, sb) :: !states;
    (* Re-recovery idempotence, shard by shard. *)
    let fs3 = reopen (snapshot (Fs.device fs2)) in
    if
      classify_shard fs3 a ~pre:pre_zero ~post:post_zero "shard 0" <> sa
      || classify_shard fs3 b ~pre:pre_one ~post:post_one "shard 1" <> sb
    then
      Alcotest.failf "crash point %d/%d: re-recovery changed a shard" i total
  done;
  (* The flush walks shard 0 then shard 1, so the sweep must observe
     shard 0 already durable while shard 1 rolls back — the isolation
     this sweep exists to prove — plus both all-or-nothing extremes. *)
  check Alcotest.bool "mixed per-shard outcomes observed" true (!mixed > 0);
  check Alcotest.bool "some crashes land fully pre" true
    (List.mem (`Pre, `Pre) !states);
  check Alcotest.bool "some crashes land fully post" true
    (List.mem (`Post, `Post) !states);
  Printf.printf "sharded sweep (%s): %d crash points, %d mixed recoveries\n%!"
    (match torn_bytes with
    | None -> "writes dropped"
    | Some k -> Printf.sprintf "torn after %d bytes" k)
    total !mixed

let test_sharded_sweep_dropped () = sweep_sharded ()
let test_sharded_sweep_torn () = sweep_sharded ~torn_bytes:22 ()

(* --- pathcache vs crash ----------------------------------------------------- *)

(* PR 7: the resolution memo is volatile per-mount state in front of a
   journaled namespace. Warm the cache, rename a directory (which
   invalidates and re-warms it), then crash at EVERY device write of
   the journaled commit. A fresh mount over the recovered image must
   resolve wholly pre- or post-rename — old and new spellings can never
   both resolve, i.e. no stale path → OID mapping survives recovery no
   matter where between the journal seal and the home writes the power
   went. *)

let test_crash_sweep_pathcache_rename () =
  let build () =
    let dev = Device.create ~block_size:512 ~blocks:8192 () in
    let fs =
      Fs.format
        ~config:(Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:128 ()) dev
    in
    let posix = P.mount fs in
    P.mkdir_p_exn posix "/dir/sub";
    ignore (P.create_file_exn ~content:"v1" posix "/dir/sub/f");
    Fs.sync_exn ~mode:`Checkpoint fs;
    (* Warm the memo on every pre-rename path... *)
    List.iter
      (fun q -> ignore (P.resolve posix q))
      [ "/dir"; "/dir/sub"; "/dir/sub/f" ];
    (* ...then rename (invalidates the subtree, re-keys, re-warms) and
       touch the new spellings so both generations passed through the
       cache before the crash. *)
    P.rename_exn posix "/dir" "/moved";
    ignore (P.resolve posix "/moved/sub/f");
    (dev, fs)
  in
  let total =
    let dev, fs = build () in
    count_writes dev (fun () -> Fs.sync_exn ~mode:`Checkpoint fs)
  in
  check Alcotest.bool "rename commit performs writes" true (total > 0);
  let pre = ref 0 and post = ref 0 in
  for i = 0 to total - 1 do
    let dev, fs = build () in
    Device.arm_crash dev ~after_writes:i ?torn_bytes:None ();
    (try
       Fs.sync_exn ~mode:`Checkpoint fs;
       Alcotest.failf "crash point %d/%d never hit" i total
     with Device.Io_error _ -> ());
    let fs2 = reopen (snapshot dev) in
    let posix2 = P.mount fs2 in
    let old_ok = P.exists posix2 "/dir/sub/f" in
    let new_ok = P.exists posix2 "/moved/sub/f" in
    (match (old_ok, new_ok) with
    | true, false ->
        incr pre;
        check Alcotest.string "pre: old path reads" "v1"
          (P.read_file posix2 "/dir/sub/f")
    | false, true ->
        incr post;
        check Alcotest.string "post: new path reads" "v1"
          (P.read_file posix2 "/moved/sub/f")
    | true, true ->
        Alcotest.failf "crash point %d/%d: both spellings resolve" i total
    | false, false ->
        Alcotest.failf "crash point %d/%d: file lost entirely" i total);
    Fs.verify fs2;
    P.verify posix2;
    P.unmount posix2
  done;
  check Alcotest.bool "some crashes land pre-rename" true (!pre > 0);
  check Alcotest.bool "some crashes land post-rename" true (!post > 0);
  Printf.printf "pathcache rename sweep: %d crash points, %d pre / %d post\n%!"
    total !pre !post

(* --- multi-op transaction atomicity across crashes ------------------------ *)

module Tag_ = Hfad_index.Tag

(* Three ops over three objects staged as one Fs.with_txn plan, then the
   sealing checkpoint is crash-swept at every device write. Recovery
   must land with the plan wholly applied or wholly absent — a prefix
   (object c without the rename, the rewrite without c, ...) is a
   violated transaction. *)
let build_txn_scenario () =
  let dev = Device.create ~block_size:512 ~blocks:8192 () in
  let fs =
    Fs.format
      ~config:(Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:128 ())
      dev
  in
  let a = Fs.create_exn ~names:[ (Tag_.Udef, "a") ] ~content:"base-a" fs in
  let b = Fs.create_exn ~names:[ (Tag_.Udef, "b") ] ~content:"base-b" fs in
  Fs.sync_exn ~mode:`Checkpoint fs;
  Fs.with_txn_exn fs (fun tx ->
      Fs.Txn.write tx a ~off:0 "txn-write-a";
      ignore (Fs.Txn.create tx ~names:[ (Tag_.Udef, "c") ] ~content:"txn-c");
      Fs.Txn.rename tx b Tag_.Udef ~from_:"b" ~to_:"b2");
  (dev, fs)

let classify_txn i total fs =
  let f k = Fs.lookup_one fs [ (Tag_.Udef, k) ] in
  let a = Option.get (f "a") in
  let a_content = Fs.read_all fs a in
  let state =
    match (f "c", f "b2", f "b", a_content) with
    | Some c, Some b2, None, "txn-write-a" ->
        check Alcotest.string "post: created object complete" "txn-c"
          (Fs.read_all fs c);
        check Alcotest.string "post: renamed object intact" "base-b"
          (Fs.read_all fs b2);
        `Post
    | None, None, Some b, "base-a" ->
        check Alcotest.string "pre: untouched object intact" "base-b"
          (Fs.read_all fs b);
        `Pre
    | c, b2, b, content ->
        Alcotest.failf
          "crash point %d/%d: torn transaction (c=%b b2=%b b=%b a=%S)" i
          total (c <> None) (b2 <> None) (b <> None) content
  in
  Fs.verify fs;
  state

let test_step_seal_sweep () =
  List.iter
    (fun torn_bytes ->
      sweep_seal ~name:"drain-step" ~build:build_step ~seal:seal_step
        ~classify:classify_step ?torn_bytes ())
    [ None; Some 22 ]

let sweep_txn ?torn_bytes () =
  let total =
    let dev, fs = build_txn_scenario () in
    count_writes dev (fun () -> Fs.sync_exn ~mode:`Checkpoint fs)
  in
  check Alcotest.bool "txn checkpoint performs writes" true (total > 0);
  let pre = ref 0 and post = ref 0 in
  for i = 0 to total - 1 do
    let dev, fs = build_txn_scenario () in
    Device.arm_crash dev ~after_writes:i ?torn_bytes ();
    (try
       Fs.sync_exn ~mode:`Checkpoint fs;
       Alcotest.failf "crash point %d/%d never hit" i total
     with Device.Io_error _ -> ());
    let fs2 = reopen (snapshot dev) in
    let state = classify_txn i total fs2 in
    (match state with `Pre -> incr pre | `Post -> incr post);
    (* Re-recovery idempotence on the already-recovered image. *)
    let fs3 = reopen (snapshot (Fs.device fs2)) in
    if state <> classify_txn i total fs3 then
      Alcotest.failf "crash point %d/%d: re-recovery changed the state" i total
  done;
  check Alcotest.bool "some crashes land pre-txn" true (!pre > 0);
  check Alcotest.bool "some crashes land post-txn" true (!post > 0);
  Printf.printf "txn crash sweep (%s): %d crash points, %d pre / %d post\n%!"
    (match torn_bytes with
    | None -> "writes dropped"
    | Some k -> Printf.sprintf "torn after %d bytes" k)
    total !pre !post

let test_txn_sweep_dropped () = sweep_txn ()
let test_txn_sweep_torn () = sweep_txn ~torn_bytes:22 ()

let suite =
  [
    Alcotest.test_case "checksum detects bit rot" `Quick test_checksum_detects_bit_rot;
    Alcotest.test_case "no checksums = silent corruption" `Quick
      test_no_checksums_silent_corruption;
    Alcotest.test_case "corrupt_block validation" `Quick test_corrupt_block_validation;
    Alcotest.test_case "checksummed fs end to end" `Quick
      test_checksummed_fs_end_to_end;
    Alcotest.test_case "image roundtrip" `Quick test_image_roundtrip;
    Alcotest.test_case "image is sparse" `Quick test_image_sparse;
    Alcotest.test_case "image rejects garbage" `Quick test_image_rejects_garbage;
    Alcotest.test_case "image missing file" `Quick test_image_missing_file;
    Alcotest.test_case "image of an older version refused" `Quick
      test_image_old_version_refused;
    Alcotest.test_case "bad slot directory fails Fs.verify" `Quick
      test_bad_directory_fails_verify;
    Alcotest.test_case "write fault through OSD" `Quick
      test_write_fault_propagates_through_osd;
    Alcotest.test_case "read fault through Fs" `Quick
      test_read_fault_propagates_through_fs;
    Alcotest.test_case "out of space" `Quick test_osd_out_of_space;
    Alcotest.test_case "crash sweep: dropped writes" `Quick
      test_crash_sweep_dropped_writes;
    Alcotest.test_case "crash sweep: torn writes (13 bytes)" `Quick
      test_crash_sweep_torn_13;
    Alcotest.test_case "crash sweep: torn writes (22 bytes)" `Quick
      test_crash_sweep_torn_22;
    Alcotest.test_case "crash sweep: crashes during recovery" `Quick
      test_crash_sweep_during_recovery;
    Alcotest.test_case "group-commit sweep: dropped writes" `Quick
      test_group_commit_sweep_dropped;
    Alcotest.test_case "group-commit sweep: torn writes" `Quick
      test_group_commit_sweep_torn;
    Alcotest.test_case "barrier-acked mutations never lost" `Quick
      test_barrier_acked_never_lost;
    Alcotest.test_case "drain-commit sweep: dropped and torn writes" `Quick
      test_drain_commit_sweep;

    Alcotest.test_case "sharded sweep: one shard crashes, others clean" `Quick
      test_sharded_sweep_dropped;
    Alcotest.test_case "sharded sweep: torn journal isolated to its shard"
      `Quick test_sharded_sweep_torn;
    Alcotest.test_case "crash sweep: warm pathcache across a rename" `Quick
      test_crash_sweep_pathcache_rename;
    Alcotest.test_case "txn crash sweep: dropped writes" `Quick
      test_txn_sweep_dropped;
    Alcotest.test_case "txn crash sweep: torn writes" `Quick
      test_txn_sweep_torn;
    Alcotest.test_case "barrier-seal sweep: overwrites and marks, no reindex"
      `Quick test_barrier_seal_sweep;
    Alcotest.test_case "drain-step sweep: the daemon's chunk and its seal"
      `Quick test_step_seal_sweep;
  ]
