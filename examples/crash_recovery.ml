(* Crash recovery: the journaled OSD in action.

   §3.3 of the paper: "In ZFS, the DMU is a transactional object store;
   in hFAD, the OSD may be transactional, but this is an implementation
   decision, not a requirement." This example makes the decision visible:
   a journaled file system survives a crash in the middle of a
   checkpoint's home writes without losing the checkpoint or corrupting
   anything.

   Run with: dune exec examples/crash_recovery.exe *)

module Device = Hfad_blockdev.Device
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module P = Hfad_posix.Posix_fs

let say fmt = Format.printf (fmt ^^ "@.")

let snapshot dev =
  (* The device image format gives us a perfect "power was cut here"
     copy of the persistent state. *)
  let path = Filename.temp_file "hfad_demo" ".img" in
  Device.save dev path;
  let copy = Device.load path in
  Sys.remove path;
  copy

let () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:512 ()) dev in
  let posix = P.mount fs in
  say "formatted a journaled file system (journaled = %b)" (Fs.journaled fs);

  (* Checkpoint 1. *)
  P.mkdir_p_exn posix "/ledger";
  ignore (P.create_file_exn ~content:"balance: 100" posix "/ledger/account");
  Fs.sync_exn ~mode:`Checkpoint fs;
  say "checkpoint 1: /ledger/account = %S" (P.read_file posix "/ledger/account");

  (* Mutate toward checkpoint 2: several related changes that must land
     together or not at all. *)
  P.write_file_exn posix "/ledger/account" "balance: 250";
  ignore (P.create_file_exn ~content:"credit +150 from payroll" posix "/ledger/journal-entry");
  let oid = P.resolve posix "/ledger/journal-entry" in
  Fs.name_exn fs oid Tag.Udef "payroll";
  say "mutated: balance rewritten, journal entry created and tagged";

  (* Crash in the middle of the checkpoint's home writes: the journal
     commit succeeds, then the device starts failing writes. *)
  let home_writes = ref 0 in
  Device.set_fault dev (fun op idx ->
      op = Device.Write && idx > 513
      && (incr home_writes;
          !home_writes > 2));
  (* The device error surfaces as a typed [Fs.error], not an exception:
     fallible entry points all have result form. *)
  (match Fs.sync ~mode:`Checkpoint fs with
  | Ok () -> say "flush unexpectedly succeeded"
  | Error e -> say "CRASH during checkpoint: %s" (Fs.error_message e));
  Device.clear_fault dev;

  (* Power comes back: reopen from the torn on-device state. A failed
     recovery would come back as [Error (Recovery _)] — match on it. *)
  let reopen dev =
    match Fs.open_existing ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) dev with
    | Ok fs -> fs
    | Error e ->
        say "recovery failed: %s" (Fs.error_message e);
        exit 1
  in
  let fs2 = reopen (snapshot dev) in
  let posix2 = P.mount fs2 in
  say "";
  say "after reopen (journal replayed):";
  say "  /ledger/account       = %S" (P.read_file posix2 "/ledger/account");
  say "  /ledger/journal-entry = %S" (P.read_file posix2 "/ledger/journal-entry");
  say "  tagged payroll        = %b"
    (Fs.lookup fs2 [ (Tag.Udef, "payroll") ] <> []);
  Fs.verify fs2;
  say "  full structural verify: OK";
  say "";
  say "all three changes landed atomically despite the torn home writes.";

  (* Act 2: this time the power dies on the very FIRST journal write of
     the next checkpoint - and the write tears, persisting only half the
     block. Nothing was sealed, so recovery must discard the torn body
     and keep the previous checkpoint byte-for-byte. *)
  P.write_file_exn posix2 "/ledger/account" "balance: 9999 (uncommitted)";
  let dev2 = Fs.device fs2 in
  Device.arm_crash dev2 ~after_writes:0
    ~torn_bytes:(Device.block_size dev2 / 2) ();
  (match Fs.sync ~mode:`Checkpoint fs2 with
  | Ok () -> say "flush unexpectedly succeeded"
  | Error e ->
      say "";
      say "CRASH on the first journal write: %s" (Fs.error_message e));
  Device.disarm_crash dev2;

  let fs3 = reopen (snapshot dev2) in
  let posix3 = P.mount fs3 in
  say "after reopen (unsealed journal body discarded):";
  say "  /ledger/account = %S" (P.read_file posix3 "/ledger/account");
  Fs.verify fs3;
  say "  full structural verify: OK";
  say "";
  say "the uncommitted balance vanished atomically: checkpoint 2 stands."
