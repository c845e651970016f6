(* C3 — §3.1.2's byte-granular insert and two-argument truncate.

   hFAD: "the use of btrees gives us the capability to insert and
   truncate with little implementation effort" — an insert splits one
   extent, re-keys the extents to the right, and writes only the new
   bytes: O(extents · log n).

   Baseline: a POSIX file can only shift its tail — read everything from
   the insertion point and write it back one position over: O(bytes).

   We insert 64 bytes into the middle of files of growing size and
   report device bytes written and wall time for both systems, and the
   same for removing 64 bytes from the middle. *)

module Device = Hfad_blockdev.Device
module Fs = Hfad.Fs
module Osd = Hfad_osd.Osd
module H = Hfad_hierfs.Hierfs
open Bench_util

let sizes () =
  scaled
    [ 65_536; 1_048_576; 4_194_304; 16_777_216 ]
    ~smoke:[ 65_536; 262_144 ]
let needle = String.make 64 'N'

let hfad_case size op =
  let dev = Device.create ~block_size:4096 ~blocks:65536 () in
  let fs = Fs.format ~config:(Fs.Config.v ~cache_pages:4096 ~index_mode:Fs.Off ()) dev in
  let oid = Fs.create_exn fs ~content:(String.make size 'x') in
  Fs.sync_exn ~mode:`Checkpoint fs;
  Device.reset_stats dev;
  let _, ms =
    time_ms (fun () ->
        (match op with
        | `Insert -> Fs.insert_exn fs oid ~off:(size / 2) needle
        | `Remove -> Fs.remove_bytes_exn fs oid ~off:(size / 2) ~len:64);
        Fs.sync_exn ~mode:`Checkpoint fs)
  in
  ((Device.stats dev).Device.bytes_written, ms)

let hier_case size op =
  let dev = Device.create ~block_size:4096 ~blocks:65536 () in
  let h = H.format ~config:(H.Config.v ~cache_pages:4096 ()) dev in
  ignore (H.create_file ~content:(String.make size 'x') h "/f");
  Hfad_pager.Pager.flush (H.pager h);
  Device.reset_stats dev;
  let _, ms =
    time_ms (fun () ->
        (match op with
        | `Insert -> H.insert_middle h "/f" ~off:(size / 2) needle
        | `Remove -> H.remove_middle h "/f" ~off:(size / 2) ~len:64);
        Hfad_pager.Pager.flush (H.pager h))
  in
  ((Device.stats dev).Device.bytes_written, ms)

let mib bytes = float_of_int bytes /. 1048576.

let run_op label op =
  heading
    (Printf.sprintf "C3%s: %s 64 bytes at the middle"
       (match op with `Insert -> "a" | `Remove -> "b")
       label);
  let rows =
    List.map
      (fun size ->
        let h_bytes, h_ms = hier_case size op in
        let f_bytes, f_ms = hfad_case size op in
        [
          Printf.sprintf "%.1f MiB" (mib size);
          Printf.sprintf "%.2f MiB" (mib h_bytes);
          fmt_f1 h_ms;
          Printf.sprintf "%.2f MiB" (mib f_bytes);
          fmt_f1 f_ms;
          fmt_ratio (float_of_int h_bytes /. float_of_int (max 1 f_bytes));
        ])
      (sizes ())
  in
  table
    ([
       [
         "file size"; "baseline written"; "baseline ms"; "hFAD written";
         "hFAD ms"; "write ratio";
       ];
     ]
    @ rows)

let run () =
  run_op "insert" `Insert;
  run_op "remove (truncate off,len)" `Remove;
  say "";
  say "expected shape: baseline writes scale with file size (tail rewrite);";
  say "hFAD writes stay near-constant, so the ratio grows linearly."
