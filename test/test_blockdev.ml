(* Tests for Hfad_blockdev: Latency and Device. *)

open Hfad_blockdev

let check = Alcotest.check

let mk ?(model = Latency.zero) ?(block_size = 64) ?(blocks = 16) () =
  Device.create ~model ~block_size ~blocks ()

let block_of_char dev c = Bytes.make (Device.block_size dev) c

(* --- Latency ----------------------------------------------------------- *)

let test_latency_zero () =
  check Alcotest.int "zero" 0
    (Latency.cost_ns Latency.zero ~last_block:None ~block:5 ~bytes:4096)

let test_latency_ssd_flat () =
  let m = Latency.default_ssd in
  let a = Latency.cost_ns m ~last_block:None ~block:0 ~bytes:4096 in
  let b = Latency.cost_ns m ~last_block:(Some 0) ~block:1 ~bytes:4096 in
  let c = Latency.cost_ns m ~last_block:(Some 0) ~block:999 ~bytes:4096 in
  check Alcotest.int "position-independent" a b;
  check Alcotest.int "random = sequential" b c

let test_latency_hdd_seek () =
  let m = Latency.default_hdd in
  let seq = Latency.cost_ns m ~last_block:(Some 7) ~block:8 ~bytes:4096 in
  let random = Latency.cost_ns m ~last_block:(Some 7) ~block:100 ~bytes:4096 in
  check Alcotest.bool "seek penalty" true (random > seq * 10)

(* --- Device ------------------------------------------------------------ *)

let test_device_geometry () =
  let dev = mk ~block_size:128 ~blocks:10 () in
  check Alcotest.int "block_size" 128 (Device.block_size dev);
  check Alcotest.int "blocks" 10 (Device.blocks dev);
  check Alcotest.int "size" 1280 (Device.size_bytes dev)

let test_device_invalid_create () =
  Alcotest.check_raises "bad block size"
    (Invalid_argument "Device.create: block_size") (fun () ->
      ignore (Device.create ~block_size:0 ~blocks:1 ()));
  Alcotest.check_raises "bad blocks" (Invalid_argument "Device.create: blocks")
    (fun () -> ignore (Device.create ~block_size:1 ~blocks:0 ()))

let test_device_reads_zero_initially () =
  let dev = mk () in
  check Alcotest.bytes "zeroed" (block_of_char dev '\000') (Device.read_block dev 3)

let test_device_write_read_roundtrip () =
  let dev = mk () in
  let data = block_of_char dev 'x' in
  Device.write_block dev 5 data;
  check Alcotest.bytes "roundtrip" data (Device.read_block dev 5);
  (* neighbours untouched *)
  check Alcotest.bytes "neighbour" (block_of_char dev '\000') (Device.read_block dev 4)

let test_device_write_isolated_copy () =
  let dev = mk () in
  let data = block_of_char dev 'y' in
  Device.write_block dev 0 data;
  Bytes.fill data 0 (Bytes.length data) 'z';
  check Alcotest.bytes "device kept its own copy" (block_of_char dev 'y')
    (Device.read_block dev 0);
  (* A rewrite lands in the block the device already holds, and is just
     as isolated from the caller's buffer. *)
  let second = block_of_char dev 'w' in
  Device.write_block dev 0 second;
  Bytes.fill second 0 (Bytes.length second) 'v';
  Bytes.fill data 0 (Bytes.length data) 'u';
  check Alcotest.bytes "rewrite kept its own copy" (block_of_char dev 'w')
    (Device.read_block dev 0);
  (* Nor does a read hand out the device's block. *)
  Bytes.fill (Device.read_block dev 0) 0 (Device.block_size dev) 't';
  check Alcotest.bytes "read returned a copy" (block_of_char dev 'w')
    (Device.read_block dev 0)

let test_device_out_of_range () =
  let dev = mk ~blocks:4 () in
  let boom = Device.Out_of_range { block = 4; blocks = 4 } in
  Alcotest.check_raises "read" boom (fun () -> ignore (Device.read_block dev 4));
  Alcotest.check_raises "write" boom (fun () ->
      Device.write_block dev 4 (block_of_char dev 'a'));
  Alcotest.check_raises "negative" (Device.Out_of_range { block = -1; blocks = 4 })
    (fun () -> ignore (Device.read_block dev (-1)))

let test_device_size_mismatch () =
  let dev = mk ~block_size:64 () in
  Alcotest.check_raises "short write"
    (Invalid_argument "Device.write_block: data size mismatch") (fun () ->
      Device.write_block dev 0 (Bytes.create 63));
  Alcotest.check_raises "short read buffer"
    (Invalid_argument "Device.read_block_into: buffer size mismatch") (fun () ->
      Device.read_block_into dev 0 (Bytes.create 65))

let test_device_stats () =
  let dev = mk () in
  Device.write_block dev 0 (block_of_char dev 'a');
  Device.write_block dev 1 (block_of_char dev 'b');
  ignore (Device.read_block dev 0);
  Device.flush dev;
  let s = Device.stats dev in
  check Alcotest.int "reads" 1 s.Device.reads;
  check Alcotest.int "writes" 2 s.Device.writes;
  check Alcotest.int "flushes" 1 s.Device.flushes;
  check Alcotest.int "bytes read" 64 s.Device.bytes_read;
  check Alcotest.int "bytes written" 128 s.Device.bytes_written;
  Device.reset_stats dev;
  let s = Device.stats dev in
  check Alcotest.int "reset reads" 0 s.Device.reads;
  check Alcotest.int "reset writes" 0 s.Device.writes

let test_device_simulated_cost_accumulates () =
  let dev = mk ~model:Latency.default_hdd ~block_size:512 ~blocks:100 () in
  ignore (Device.read_block dev 0);
  ignore (Device.read_block dev 50);
  let s = Device.stats dev in
  check Alcotest.bool "cost > 0" true (s.Device.simulated_ns > 0)

let test_device_hdd_sequential_cheaper () =
  let sequential = mk ~model:Latency.default_hdd ~block_size:512 ~blocks:100 () in
  for i = 0 to 49 do
    ignore (Device.read_block sequential i)
  done;
  let random = mk ~model:Latency.default_hdd ~block_size:512 ~blocks:100 () in
  for i = 0 to 49 do
    ignore (Device.read_block random ((i * 37) mod 100))
  done;
  check Alcotest.bool "sequential cheaper" true
    ((Device.stats sequential).Device.simulated_ns
    < (Device.stats random).Device.simulated_ns)

let test_device_fault_injection () =
  let dev = mk () in
  Device.set_fault dev (fun op idx -> op = Device.Read && idx = 3);
  Device.write_block dev 3 (block_of_char dev 'c');
  Alcotest.check_raises "faulted read"
    (Device.Io_error "injected read fault at block 3") (fun () ->
      ignore (Device.read_block dev 3));
  ignore (Device.read_block dev 2);
  Device.clear_fault dev;
  check Alcotest.bytes "recovered" (block_of_char dev 'c') (Device.read_block dev 3)

let test_device_parallel_access () =
  let dev = mk ~blocks:64 () in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 63 do
              let data = Bytes.make 64 (Char.chr (65 + d)) in
              Device.write_block dev i data;
              ignore (Device.read_block dev i)
            done))
  in
  List.iter Domain.join domains;
  let s = Device.stats dev in
  check Alcotest.int "all ops counted" (4 * 64 * 2) (s.Device.reads + s.Device.writes)

(* --- crash-point injection --------------------------------------------- *)

let test_device_crash_point () =
  let dev = mk () in
  Device.write_block dev 2 (block_of_char dev 'o');
  Device.arm_crash dev ~after_writes:2 ();
  Device.write_block dev 0 (block_of_char dev 'a');
  Device.write_block dev 1 (block_of_char dev 'b');
  (* The third write is the crash point: dropped entirely. *)
  (try
     Device.write_block dev 2 (block_of_char dev 'n');
     Alcotest.fail "crash point ignored"
   with Device.Io_error _ -> ());
  check Alcotest.bool "crashed" true (Device.crashed dev);
  (* Everything after the crash is refused... *)
  (try
     Device.write_block dev 3 (block_of_char dev 'c');
     Alcotest.fail "post-crash write accepted"
   with Device.Io_error _ -> ());
  (try
     Device.flush dev;
     Alcotest.fail "post-crash barrier accepted"
   with Device.Io_error _ -> ());
  (* ...but reads serve the last persisted state, so the image can be
     inspected/snapshotted like a disk pulled from a dead machine. *)
  check Alcotest.bytes "pre-crash write persisted" (block_of_char dev 'a')
    (Device.read_block dev 0);
  check Alcotest.bytes "dying write dropped" (block_of_char dev 'o')
    (Device.read_block dev 2);
  (* Disarming revives the device (a re-attach in tests). *)
  Device.disarm_crash dev;
  check Alcotest.bool "revived" false (Device.crashed dev);
  Device.write_block dev 3 (block_of_char dev 'c');
  Device.flush dev

let test_device_torn_write () =
  let dev = mk () in
  Device.write_block dev 5 (block_of_char dev 'o');
  Device.arm_crash dev ~after_writes:0 ~torn_bytes:5 ();
  (try
     Device.write_block dev 5 (block_of_char dev 'n');
     Alcotest.fail "crash point ignored"
   with Device.Io_error _ -> ());
  let expect = block_of_char dev 'o' in
  Bytes.fill expect 0 5 'n';
  check Alcotest.bytes "prefix new, tail old" expect (Device.read_block dev 5)

let test_device_torn_rewrite_keeps_old_tail () =
  (* A torn write to a block written twice before tears the block the
     device holds in place: the prefix is new, the tail is the last
     complete write's, and the writers' buffers are untouched. *)
  let dev = mk () in
  let first = block_of_char dev 'a' and second = block_of_char dev 'o' in
  Device.write_block dev 5 first;
  Device.write_block dev 5 second;
  let torn = block_of_char dev 'n' in
  Device.arm_crash dev ~after_writes:0 ~torn_bytes:7 ();
  (try
     Device.write_block dev 5 torn;
     Alcotest.fail "crash point ignored"
   with Device.Io_error _ -> ());
  let expect = block_of_char dev 'o' in
  Bytes.fill expect 0 7 'n';
  check Alcotest.bytes "prefix new, tail of the last write" expect
    (Device.read_block dev 5);
  check Alcotest.bytes "first buffer untouched" (block_of_char dev 'a') first;
  check Alcotest.bytes "second buffer untouched" (block_of_char dev 'o') second;
  check Alcotest.bytes "torn buffer untouched" (block_of_char dev 'n') torn

let test_device_torn_write_checksum_detectable () =
  (* On a checksummed device a torn write keeps the OLD block CRC, so the
     tear is detectable exactly like bit rot. *)
  let dev = Device.create ~checksums:true ~block_size:64 ~blocks:16 () in
  Device.write_block dev 5 (Bytes.make 64 'o');
  Device.arm_crash dev ~after_writes:0 ~torn_bytes:5 ();
  (try Device.write_block dev 5 (Bytes.make 64 'n') with Device.Io_error _ -> ());
  Alcotest.check_raises "torn write fails checksum"
    (Device.Io_error "checksum mismatch at block 5") (fun () ->
      ignore (Device.read_block dev 5))

let test_device_crash_image_snapshot () =
  (* Device.save still works on a crashed device - that is how the crash
     sweep snapshots the disk of the "dead machine". *)
  let dev = mk () in
  Device.write_block dev 1 (block_of_char dev 'k');
  Device.arm_crash dev ~after_writes:0 ();
  (try Device.write_block dev 2 (block_of_char dev 'x') with Device.Io_error _ -> ());
  let path = Filename.temp_file "hfad_crash" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Device.save dev path;
      let copy = Device.load path in
      check Alcotest.bytes "snapshot has persisted state" (block_of_char dev 'k')
        (Device.read_block copy 1);
      check Alcotest.bytes "snapshot lacks dropped write" (block_of_char dev '\000')
        (Device.read_block copy 2);
      (* The copy is alive: the crash state is not part of the image. *)
      Device.write_block copy 2 (block_of_char dev 'x'))

let test_device_arm_crash_validation () =
  let dev = mk () in
  Alcotest.check_raises "negative after_writes"
    (Invalid_argument "Device.arm_crash: after_writes") (fun () ->
      Device.arm_crash dev ~after_writes:(-1) ());
  Alcotest.check_raises "torn_bytes too large"
    (Invalid_argument "Device.arm_crash: torn_bytes out of range") (fun () ->
      Device.arm_crash dev ~after_writes:0 ~torn_bytes:65 ())

let suite =
  [
    Alcotest.test_case "latency zero" `Quick test_latency_zero;
    Alcotest.test_case "latency ssd flat" `Quick test_latency_ssd_flat;
    Alcotest.test_case "latency hdd seek penalty" `Quick test_latency_hdd_seek;
    Alcotest.test_case "device geometry" `Quick test_device_geometry;
    Alcotest.test_case "device invalid create" `Quick test_device_invalid_create;
    Alcotest.test_case "device zero-initialized" `Quick test_device_reads_zero_initially;
    Alcotest.test_case "device write/read roundtrip" `Quick test_device_write_read_roundtrip;
    Alcotest.test_case "device isolates written buffer" `Quick test_device_write_isolated_copy;
    Alcotest.test_case "device out of range" `Quick test_device_out_of_range;
    Alcotest.test_case "device size mismatch" `Quick test_device_size_mismatch;
    Alcotest.test_case "device stats" `Quick test_device_stats;
    Alcotest.test_case "device simulated cost" `Quick test_device_simulated_cost_accumulates;
    Alcotest.test_case "device hdd sequential cheaper" `Quick test_device_hdd_sequential_cheaper;
    Alcotest.test_case "device fault injection" `Quick test_device_fault_injection;
    Alcotest.test_case "device crash point" `Quick test_device_crash_point;
    Alcotest.test_case "device torn write" `Quick test_device_torn_write;
    Alcotest.test_case "device torn rewrite keeps old tail" `Quick
      test_device_torn_rewrite_keeps_old_tail;
    Alcotest.test_case "device torn write is checksum-detectable" `Quick
      test_device_torn_write_checksum_detectable;
    Alcotest.test_case "device crash image snapshot" `Quick
      test_device_crash_image_snapshot;
    Alcotest.test_case "device arm_crash validation" `Quick
      test_device_arm_crash_validation;
    Alcotest.test_case "device parallel access" `Slow test_device_parallel_access;
  ]
