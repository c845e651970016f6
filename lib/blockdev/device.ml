module Trace = Hfad_trace.Trace

exception Out_of_range of { block : int; blocks : int }
exception Io_error of string

type op = Read | Write

(* Deterministic crash-point state: [writes_left] full writes remain
   before the device dies; the dying write persists only [torn_bytes]
   bytes (None = nothing) and every later write or barrier raises. *)
type crash = {
  mutable writes_left : int;
  torn_bytes : int option;
  mutable dead : bool;
}

type stats = {
  reads : int;
  writes : int;
  flushes : int;
  bytes_read : int;
  bytes_written : int;
  simulated_ns : int;
}

(* The physical device. Every view ({!t}) of the same storage shares
   this record, so faults, crash points, statistics and the latency
   model's head position are device-wide — a power cut does not respect
   region boundaries. *)
type base = {
  block_size : int;
  nblocks : int;
  model : Latency.t;
  checksums : bool;
  crcs : (int, int32) Hashtbl.t;  (* block -> CRC-32 of last write *)
  store : Bytes.t option array;  (* lazily materialized blocks *)
  mutex : Mutex.t;
  mutable fault : (op -> int -> bool) option;
  mutable crash : crash option;
  mutable last_block : int option;
  mutable reads : int;
  mutable writes : int;
  mutable flushes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable simulated_ns : int;
}

(* A window of [vblocks] blocks starting at physical block [off]. The
   whole device is the [off = 0] window over all of it; {!sub} carves
   disjoint windows so independent stacks (one per shard) can share one
   image, one crash domain and one statistics ledger. *)
type t = { b : base; off : int; vblocks : int }

let create ?(model = Latency.zero) ?(checksums = false) ~block_size ~blocks () =
  if block_size <= 0 then invalid_arg "Device.create: block_size";
  if blocks <= 0 then invalid_arg "Device.create: blocks";
  let b =
    {
      block_size;
      nblocks = blocks;
      model;
      checksums;
      crcs = Hashtbl.create (if checksums then 256 else 0);
      store = Array.make blocks None;
      mutex = Mutex.create ();
      fault = None;
      crash = None;
      last_block = None;
      reads = 0;
      writes = 0;
      flushes = 0;
      bytes_read = 0;
      bytes_written = 0;
      simulated_ns = 0;
    }
  in
  { b; off = 0; vblocks = blocks }

let sub t ~first_block ~blocks =
  if first_block < 0 || blocks <= 0 || first_block + blocks > t.vblocks then
    invalid_arg
      (Printf.sprintf "Device.sub: [%d, %d+%d) outside [0, %d)" first_block
         first_block blocks t.vblocks);
  { b = t.b; off = t.off + first_block; vblocks = blocks }

let is_sub t = t.off > 0 || t.vblocks < t.b.nblocks
let first_block t = t.off
let block_size t = t.b.block_size
let blocks t = t.vblocks
let size_bytes t = t.b.block_size * t.vblocks

let with_lock b f =
  Mutex.lock b.mutex;
  match f () with
  | result ->
      Mutex.unlock b.mutex;
      result
  | exception e ->
      Mutex.unlock b.mutex;
      raise e

let check_range t idx =
  if idx < 0 || idx >= t.vblocks then
    raise (Out_of_range { block = idx; blocks = t.vblocks })

let check_fault b op idx =
  match b.fault with
  | Some f when f op idx ->
      let kind = match op with Read -> "read" | Write -> "write" in
      raise (Io_error (Printf.sprintf "injected %s fault at block %d" kind idx))
  | Some _ | None -> ()

(* Blit the first [k] bytes of [data] into block [idx], in place: the
   device never hands out its buffers (reads copy out), so reusing the
   block it holds is safe, and a rewrite allocates nothing. A block
   never written before starts as zeroes. *)
let store_prefix b idx data k =
  let block =
    match b.store.(idx) with
    | Some block -> block
    | None ->
        let block = Bytes.make b.block_size '\000' in
        b.store.(idx) <- Some block;
        block
  in
  Bytes.blit data 0 block 0 k

(* Consulted (under the lock) before a write reaches the store. Raises
   once the crash point is passed; the dying write itself persists a
   torn prefix when configured, then raises. *)
let check_crash_write b idx data =
  match b.crash with
  | None -> ()
  | Some c when c.dead ->
      raise (Io_error (Printf.sprintf "device crashed: write to block %d refused" idx))
  | Some c when c.writes_left > 0 -> c.writes_left <- c.writes_left - 1
  | Some c ->
      c.dead <- true;
      (match c.torn_bytes with
      | None -> ()
      | Some k ->
          (* Persist only the first [k] bytes of the final write, leaving
             the tail of the block as it was — a torn write. The CRC
             table is deliberately not updated, so a checksummed device
             detects the tear on the next read. *)
          store_prefix b idx data k);
      raise
        (Io_error
           (Printf.sprintf "injected crash at block %d (%s)" idx
              (match c.torn_bytes with
              | None -> "write dropped"
              | Some k -> Printf.sprintf "torn after %d bytes" k)))

let charge b op idx =
  let cost =
    Latency.cost_ns b.model ~last_block:b.last_block ~block:idx
      ~bytes:b.block_size
  in
  b.simulated_ns <- b.simulated_ns + cost;
  b.last_block <- Some idx;
  match op with
  | Read ->
      b.reads <- b.reads + 1;
      b.bytes_read <- b.bytes_read + b.block_size
  | Write ->
      b.writes <- b.writes + 1;
      b.bytes_written <- b.bytes_written + b.block_size

let read_block_into_locked t idx buf =
  let b = t.b in
  let abs = t.off + idx in
  with_lock b (fun () ->
      check_range t idx;
      check_fault b Read abs;
      charge b Read abs;
      match b.store.(abs) with
      | Some data ->
          if b.checksums then begin
            match Hashtbl.find_opt b.crcs abs with
            | Some expected
              when Hfad_util.Crc32.bytes data ~pos:0 ~len:b.block_size
                   <> expected ->
                raise
                  (Io_error
                     (Printf.sprintf "checksum mismatch at block %d" abs))
            | Some _ | None -> ()
          end;
          Bytes.blit data 0 buf 0 b.block_size
      | None -> Bytes.fill buf 0 b.block_size '\000')

let read_block_into t idx buf =
  if Bytes.length buf <> t.b.block_size then
    invalid_arg "Device.read_block_into: buffer size mismatch";
  if Trace.enabled () then
    Trace.with_span ~layer:"device" ~op:"read"
      ~attrs:[ ("block", string_of_int (t.off + idx)) ]
      (fun () -> read_block_into_locked t idx buf)
  else read_block_into_locked t idx buf

let read_block t idx =
  let buf = Bytes.create t.b.block_size in
  read_block_into t idx buf;
  buf

let write_block_locked t idx data =
  let b = t.b in
  let abs = t.off + idx in
  with_lock b (fun () ->
      check_range t idx;
      check_crash_write b abs data;
      check_fault b Write abs;
      charge b Write abs;
      if b.checksums then
        Hashtbl.replace b.crcs abs
          (Hfad_util.Crc32.bytes data ~pos:0 ~len:b.block_size);
      store_prefix b abs data b.block_size)

let write_block t idx data =
  if Bytes.length data <> t.b.block_size then
    invalid_arg "Device.write_block: data size mismatch";
  if Trace.enabled () then
    Trace.with_span ~layer:"device" ~op:"write"
      ~attrs:[ ("block", string_of_int (t.off + idx)) ]
      (fun () -> write_block_locked t idx data)
  else write_block_locked t idx data

let flush_locked t =
  let b = t.b in
  with_lock b (fun () ->
      (match b.crash with
      | Some c when c.dead ->
          raise (Io_error "device crashed: barrier refused")
      | Some _ | None -> ());
      b.flushes <- b.flushes + 1)

let flush t =
  if Trace.enabled () then
    Trace.with_span ~layer:"device" ~op:"flush" (fun () -> flush_locked t)
  else flush_locked t

let image_magic = "hFADIMG1"

(* Always the whole physical device: an image is the crash/persistence
   unit, whatever window it was saved through. *)
let save t path =
  let b = t.b in
  with_lock b (fun () ->
      let tmp = path ^ ".tmp" in
      let oc = open_out_bin tmp in
      (try
         output_string oc image_magic;
         let header = Bytes.create 12 in
         Bytes.set_int32_be header 0 (Int32.of_int b.block_size);
         Bytes.set_int32_be header 4 (Int32.of_int b.nblocks);
         let materialized = ref 0 in
         Array.iter
           (fun block -> if block <> None then incr materialized)
           b.store;
         Bytes.set_int32_be header 8 (Int32.of_int !materialized);
         output_bytes oc header;
         Array.iteri
           (fun idx block ->
             match block with
             | None -> ()
             | Some data ->
                 let ib = Bytes.create 4 in
                 Bytes.set_int32_be ib 0 (Int32.of_int idx);
                 output_bytes oc ib;
                 output_bytes oc data)
           b.store;
         close_out oc
       with e ->
         close_out_noerr oc;
         raise e);
      Sys.rename tmp path)

let load ?(model = Latency.zero) path =
  let ic =
    try open_in_bin path
    with Sys_error msg -> raise (Io_error ("cannot open image: " ^ msg))
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fail msg = raise (Io_error ("malformed image: " ^ msg)) in
      let magic = really_input_string ic 8 in
      if magic <> image_magic then fail "bad magic";
      let header = Bytes.create 12 in
      (try really_input ic header 0 12 with End_of_file -> fail "short header");
      let block_size = Int32.to_int (Bytes.get_int32_be header 0) in
      let nblocks = Int32.to_int (Bytes.get_int32_be header 4) in
      let materialized = Int32.to_int (Bytes.get_int32_be header 8) in
      if block_size <= 0 || nblocks <= 0 || materialized < 0 then
        fail "bad geometry";
      let t = create ~model ~block_size ~blocks:nblocks () in
      (try
         for _ = 1 to materialized do
           let ib = Bytes.create 4 in
           really_input ic ib 0 4;
           let idx = Int32.to_int (Bytes.get_int32_be ib 0) in
           if idx < 0 || idx >= nblocks then fail "block index out of range";
           let data = Bytes.create block_size in
           really_input ic data 0 block_size;
           t.b.store.(idx) <- Some data
         done
       with End_of_file -> fail "truncated image");
      t)

let corrupt_block t idx ~byte =
  let b = t.b in
  let abs = t.off + idx in
  with_lock b (fun () ->
      check_range t idx;
      if byte < 0 || byte >= b.block_size then
        invalid_arg "Device.corrupt_block: byte out of range";
      match b.store.(abs) with
      | None -> invalid_arg "Device.corrupt_block: block never written"
      | Some data ->
          Bytes.set data byte
            (Char.chr (Char.code (Bytes.get data byte) lxor 0x40)))

let set_fault t f = with_lock t.b (fun () -> t.b.fault <- Some f)
let clear_fault t = with_lock t.b (fun () -> t.b.fault <- None)

let arm_crash t ~after_writes ?torn_bytes () =
  if after_writes < 0 then invalid_arg "Device.arm_crash: after_writes";
  (match torn_bytes with
  | Some k when k < 0 || k > t.b.block_size ->
      invalid_arg "Device.arm_crash: torn_bytes out of range"
  | Some _ | None -> ());
  with_lock t.b (fun () ->
      t.b.crash <- Some { writes_left = after_writes; torn_bytes; dead = false })

let disarm_crash t = with_lock t.b (fun () -> t.b.crash <- None)

let crashed t =
  with_lock t.b (fun () ->
      match t.b.crash with Some c -> c.dead | None -> false)

let stats t =
  let b = t.b in
  with_lock b (fun () ->
      {
        reads = b.reads;
        writes = b.writes;
        flushes = b.flushes;
        bytes_read = b.bytes_read;
        bytes_written = b.bytes_written;
        simulated_ns = b.simulated_ns;
      })

let reset_stats t =
  let b = t.b in
  with_lock b (fun () ->
      b.reads <- 0;
      b.writes <- 0;
      b.flushes <- 0;
      b.bytes_read <- 0;
      b.bytes_written <- 0;
      b.simulated_ns <- 0;
      b.last_block <- None)

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "reads=%d writes=%d flushes=%d bytes_read=%d bytes_written=%d sim_ns=%d"
    s.reads s.writes s.flushes s.bytes_read s.bytes_written s.simulated_ns
