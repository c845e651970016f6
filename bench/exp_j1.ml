(* J1 — journaling: what crash consistency costs.

   §3.3: "the OSD may be transactional, but this is an implementation
   decision." This experiment prices the decision: a journaled
   checkpoint writes every dirty page twice (journal record + home
   location) plus the descriptor/seal blocks, so the device-write
   amplification should sit just above 2x, and recovery after a
   mid-checkpoint crash should cost roughly one extra checkpoint's worth
   of replay I/O. Group-commit geometry (pages per sealed record) is
   reported for the common block sizes. *)

module Device = Hfad_blockdev.Device
module Journal = Hfad_journal.Journal
module Fs = Hfad.Fs
open Bench_util

let block_size = 4096
let blocks = 65536

(* A freshly checkpointed instance with [dirty_kb] of re-dirtied object
   data, stats zeroed so the next flush is measured in isolation. *)
let build ~journaled ~dirty_kb =
  let dev = Device.create ~block_size ~blocks () in
  let journal_pages = if journaled then 2048 else 0 in
  let fs = Fs.format ~config:(Fs.Config.v ~cache_pages:16384 ~index_mode:Fs.Off ~journal_pages ()) dev in
  let oid = Fs.create_exn fs ~content:(String.make (dirty_kb * 1024) 'i') in
  Fs.sync_exn ~mode:`Checkpoint fs;
  Device.reset_stats dev;
  Fs.write_exn fs oid ~off:0 (String.make (dirty_kb * 1024) 'j');
  (dev, fs)

let checkpoint_row dirty_kb =
  let dev_p, fs_p = build ~journaled:false ~dirty_kb in
  let _, plain_ms = time_ms (fun () -> Fs.sync_exn ~mode:`Checkpoint fs_p) in
  let plain_writes = (Device.stats dev_p).Device.writes in
  let dev_j, fs_j = build ~journaled:true ~dirty_kb in
  let _, jrn_ms = time_ms (fun () -> Fs.sync_exn ~mode:`Checkpoint fs_j) in
  let jrn_writes = (Device.stats dev_j).Device.writes in
  [
    Printf.sprintf "%d KiB" dirty_kb;
    fmt_int plain_writes;
    fmt_int jrn_writes;
    fmt_ratio (float_of_int jrn_writes /. float_of_int plain_writes);
    Printf.sprintf "%.2fms" plain_ms;
    Printf.sprintf "%.2fms" jrn_ms;
  ]

(* Crash mid-home-writes (journal sealed) and price the re-attach. *)
let recovery_row dirty_kb =
  let total =
    let dev, fs = build ~journaled:true ~dirty_kb in
    let n = ref 0 in
    Device.set_fault dev (fun op _ ->
        if op = Device.Write then incr n;
        false);
    Fs.sync_exn ~mode:`Checkpoint fs;
    Device.clear_fault dev;
    !n
  in
  let dev, fs = build ~journaled:true ~dirty_kb in
  Device.arm_crash dev ~after_writes:(total - 2) ();
  (try Fs.sync_exn ~mode:`Checkpoint fs with Device.Io_error _ -> ());
  let snapshot () =
    let path = Filename.temp_file "hfad_j1" ".img" in
    Device.save dev path;
    let copy = Device.load path in
    Sys.remove path;
    copy
  in
  let crashed_ms =
    let copy = snapshot () in
    Device.reset_stats copy;
    let _, ms = time_ms (fun () -> ignore (Fs.open_existing_exn copy)) in
    (ms, (Device.stats copy).Device.writes)
  in
  let clean_ms =
    (* Recover once, re-snapshot: now the image is clean; the reopen
       delta is pure recovery work. *)
    let healed = snapshot () in
    ignore (Fs.open_existing_exn healed);
    let path = Filename.temp_file "hfad_j1" ".img" in
    Device.save healed path;
    let copy = Device.load path in
    Sys.remove path;
    let _, ms = time_ms (fun () -> ignore (Fs.open_existing_exn copy)) in
    ms
  in
  let ms, replay_writes = crashed_ms in
  [
    Printf.sprintf "%d KiB" dirty_kb;
    fmt_int total;
    fmt_int replay_writes;
    Printf.sprintf "%.2fms" clean_ms;
    Printf.sprintf "%.2fms" ms;
  ]

let geometry_row bs =
  let dev = Device.create ~block_size:bs ~blocks:4096 () in
  let j = Journal.format dev ~first_block:2 ~blocks:256 in
  let cap = Journal.capacity_pages j in
  [
    fmt_int bs;
    "256";
    fmt_int cap;
    fmt_int (Journal.records_for j ~pages:cap);
  ]

let run () =
  heading "J1: journaled checkpoint cost and recovery (4 KiB blocks)";
  say "checkpoint: device writes and wall time, plain flush vs journaled";
  table
    ([ [ "dirty set"; "writes plain"; "writes jrn"; "amp"; "plain"; "journaled" ] ]
    @ List.map checkpoint_row (scaled [ 64; 256; 1024 ] ~smoke:[ 64 ]));
  say "";
  say "recovery: re-attach after a crash that tore the home writes";
  say "(journal sealed; \"replay writes\" land the checkpoint again)";
  table
    ([ [ "dirty set"; "ckpt writes"; "replay writes"; "clean open"; "crashed open" ] ]
    @ List.map recovery_row (scaled [ 64; 256; 1024 ] ~smoke:[ 64 ]));
  say "";
  say "group-commit geometry: pages one 256-block journal region can seal";
  table
    ([ [ "block size"; "region blocks"; "capacity (pages)"; "records" ] ]
    @ List.map geometry_row [ 512; 1024; 4096 ]);
  say "";
  say "the journal prices out as expected: ~2x write amplification per";
  say "checkpoint, and crash recovery costs one replay of the sealed";
  say "batch on top of a clean open."
