module Device = Hfad_blockdev.Device
module Codec = Hfad_util.Codec
module Crc32 = Hfad_util.Crc32
module Trace = Hfad_trace.Trace

exception Journal_full of { needed_blocks : int; have_blocks : int }

type reason =
  | Bad_magic
  | Bad_version of int
  | Bad_state of int
  | Bad_geometry of string
  | Record_fails_crc of { record : int }

let pp_reason fmt = function
  | Bad_magic -> Format.fprintf fmt "bad magic (journal absent or overwritten)"
  | Bad_version v -> Format.fprintf fmt "unsupported journal version %d" v
  | Bad_state s -> Format.fprintf fmt "impossible header state %d" s
  | Bad_geometry msg -> Format.fprintf fmt "bad record geometry: %s" msg
  | Record_fails_crc { record } ->
      Format.fprintf fmt "sealed record %d fails CRC" record

type recovery =
  | Clean
  | Committed of (int * Bytes.t) list
  | Torn_seal
  | Corrupt of reason

let magic = "hFADJRN2"
let version = 3
let state_clean = 0
let state_committed = 1

type t = {
  dev : Device.t;
  first_block : int;
  blocks : int;
  block_size : int;
  mutable seq : int64;
  mutable last_ops : int;  (* op annotation of the last seal seen/written *)
}

(* --- header ----------------------------------------------------------- *)
(* magic(8) | version u8 | seq i64 | state u8 | record_count u32 |
   ops u32 | header_crc u32 — the CRC covers every preceding byte, so a
   torn header write is detected by the header itself, not just the
   payload. [ops] annotates the seal with the number of logical
   operations the record chain carries — a multi-op transaction commits
   as ONE sealed chain, and recovery can report exactly how many ops it
   landed or rolled back. *)

let header_crc_off = 26

let write_header t ~state ~record_count ~ops =
  let page = Bytes.make t.block_size '\000' in
  Bytes.blit_string magic 0 page 0 8;
  Codec.put_u8 page 8 version;
  Codec.put_i64 page 9 t.seq;
  Codec.put_u8 page 17 state;
  Codec.put_u32 page 18 record_count;
  Codec.put_u32 page 22 ops;
  let crc = Crc32.bytes page ~pos:0 ~len:header_crc_off in
  Bytes.set_int32_be page header_crc_off crc;
  Device.write_block t.dev t.first_block page;
  Device.flush t.dev;
  t.last_ops <- ops

type header =
  | Valid of { seq : int64; state : int; record_count : int; ops : int }
  | Torn  (* magic intact, self-CRC mismatch: a seal write tore *)
  | Invalid of reason

let read_header t =
  let page = Device.read_block t.dev t.first_block in
  if Bytes.sub_string page 0 8 <> magic then Invalid Bad_magic
  else
    let v = Codec.get_u8 page 8 in
    if v <> version then Invalid (Bad_version v)
    else if
      Crc32.bytes page ~pos:0 ~len:header_crc_off
      <> Bytes.get_int32_be page header_crc_off
    then Torn
    else
      Valid
        {
          seq = Codec.get_i64 page 9;
          state = Codec.get_u8 page 17;
          record_count = Codec.get_u32 page 18;
          ops = Codec.get_u32 page 22;
        }

(* --- construction -------------------------------------------------------- *)

let mk dev ~first_block ~blocks =
  if blocks < 2 then invalid_arg "Journal: region too small";
  let block_size = Device.block_size dev in
  if block_size < 32 then invalid_arg "Journal: block size too small";
  { dev; first_block; blocks; block_size; seq = 0L; last_ops = 0 }

let format dev ~first_block ~blocks =
  let t = mk dev ~first_block ~blocks in
  write_header t ~state:state_clean ~record_count:0 ~ops:0;
  t

let attach dev ~first_block ~blocks =
  let t = mk dev ~first_block ~blocks in
  match read_header t with
  | Valid { seq; ops; _ } ->
      t.seq <- seq;
      t.last_ops <- ops;
      Ok t
  | Torn ->
      (* The seal tore mid-write; the sequence field is untrustworthy.
         Attach anyway — recover reports Torn_seal and mark_clean heals
         the header (the diagnostic sequence restarts at 0). *)
      Ok t
  | Invalid reason -> Error reason

(* --- capacity --------------------------------------------------------------- *)
(* A batch is split into records of at most [per_record_pages] pages.
   Each record is one descriptor block (page count, payload CRC, home
   page numbers, self-CRC) followed by the page images, so n pages cost
   n + ceil(n / per_record_pages) blocks of the region's [blocks - 1]
   non-header blocks. *)

let per_record_pages t = (t.block_size - 12) / 4

let records_for t ~pages =
  if pages <= 0 then 0
  else
    let cap = per_record_pages t in
    (pages + cap - 1) / cap

let blocks_for t ~pages = pages + records_for t ~pages
let would_fit t ~pages = pages >= 0 && blocks_for t ~pages <= t.blocks - 1

let capacity_pages t =
  let avail = t.blocks - 1 in
  let cap = per_record_pages t in
  (* n + ceil(n/cap) <= avail is maximized near k = ceil(avail/(cap+1))
     descriptor blocks; probe the neighbourhood and verify. *)
  let k0 = (avail + cap) / (cap + 1) in
  let candidate k = if k < 1 then 0 else max 0 (min (avail - k) (k * cap)) in
  let n = ref (max (candidate (k0 - 1)) (max (candidate k0) (candidate (k0 + 1)))) in
  while !n > 0 && not (would_fit t ~pages:!n) do
    decr n
  done;
  !n

(* --- record codec ------------------------------------------------------------ *)

(* The payload CRC covers the record's page images joined together; it
   is chained image by image, so the images are neither joined nor
   copied: the record's blocks are the caller's pages themselves. *)
let payload_crc t images =
  List.fold_left
    (fun crc data -> Crc32.bytes ~crc data ~pos:0 ~len:t.block_size)
    0l images

let encode_record t pages =
  let count = List.length pages in
  assert (count >= 1 && count <= per_record_pages t);
  let images =
    List.map
      (fun (_, data) ->
        if Bytes.length data <> t.block_size then
          invalid_arg "Journal.commit: page size mismatch";
        data)
      pages
  in
  let desc = Bytes.make t.block_size '\000' in
  Codec.put_u32 desc 0 count;
  Bytes.set_int32_be desc 4 (payload_crc t images);
  List.iteri (fun i (home, _) -> Codec.put_u32 desc (8 + (4 * i)) home) pages;
  let desc_crc = Crc32.bytes desc ~pos:0 ~len:(8 + (4 * count)) in
  Bytes.set_int32_be desc (8 + (4 * count)) desc_crc;
  desc :: images

let rec split_batch cap = function
  | [] -> []
  | pages ->
      let rec take n acc rest =
        match (n, rest) with
        | 0, _ | _, [] -> (List.rev acc, rest)
        | n, x :: tl -> take (n - 1) (x :: acc) tl
      in
      let chunk, rest = take cap [] pages in
      chunk :: split_batch cap rest

let encode_batch t pages =
  List.concat_map (encode_record t) (split_batch (per_record_pages t) pages)

(* Walk [records] sealed records laid out back to back in [total]
   blocks, [block i] being the [i]th. Each payload CRC is chained over
   the record's images as read, so they are never joined. *)
let decode_records t ~records ~total block =
  let rec loop r idx acc =
    if r >= records then Ok (List.rev acc)
    else if idx >= total then Error (Bad_geometry "record chain past region")
    else
      let desc = block idx in
      let count = Codec.get_u32 desc 0 in
      if count < 1 || count > per_record_pages t then
        Error
          (Bad_geometry
             (Printf.sprintf "record %d claims %d pages" r count))
      else if
        Crc32.bytes desc ~pos:0 ~len:(8 + (4 * count))
        <> Bytes.get_int32_be desc (8 + (4 * count))
      then Error (Record_fails_crc { record = r })
      else if idx + 1 + count > total then
        Error (Bad_geometry "record payload past region")
      else
        let images = List.init count (fun i -> block (idx + 1 + i)) in
        if payload_crc t images <> Bytes.get_int32_be desc 4 then
          Error (Record_fails_crc { record = r })
        else
          let pairs =
            List.mapi (fun i data -> (Codec.get_u32 desc (8 + (4 * i)), data)) images
          in
          loop (r + 1) (idx + 1 + count) (List.rev_append pairs acc)
  in
  loop 0 0 []

let decode_batch t ~records blocks =
  let arr = Array.of_list blocks in
  decode_records t ~records ~total:(Array.length arr) (Array.get arr)

(* --- commit / recover -------------------------------------------------------- *)

let commit_plain t ~ops pages =
  match pages with
  | [] -> ()
  | _ ->
      let n = List.length pages in
      if not (would_fit t ~pages:n) then
        raise
          (Journal_full
             { needed_blocks = 1 + blocks_for t ~pages:n; have_blocks = t.blocks });
      (* Write the record bodies first and barrier them, then seal with
         the header: a crash before the header write leaves the previous
         (clean or sealed) header in force. *)
      List.iteri
        (fun i img -> Device.write_block t.dev (t.first_block + 1 + i) img)
        (encode_batch t pages);
      Device.flush t.dev;
      t.seq <- Int64.add t.seq 1L;
      write_header t ~state:state_committed
        ~record_count:(records_for t ~pages:n)
        ~ops

let commit ?(ops = 0) t pages =
  if Trace.enabled () then
    Trace.with_span ~layer:"journal" ~op:"commit"
      ~attrs:[ ("pages", string_of_int (List.length pages)) ]
      (fun () -> commit_plain t ~ops pages)
  else commit_plain t ~ops pages

let mark_clean t =
  if Trace.enabled () then
    Trace.with_span ~layer:"journal" ~op:"mark_clean" (fun () ->
        write_header t ~state:state_clean ~record_count:0 ~ops:0)
  else write_header t ~state:state_clean ~record_count:0 ~ops:0

let recover t =
  match read_header t with
  | Invalid reason -> Corrupt reason
  | Torn -> Torn_seal
  | Valid { seq; state; record_count; ops } ->
      t.seq <- seq;
      t.last_ops <- ops;
      if state = state_clean then Clean
      else if state <> state_committed then Corrupt (Bad_state state)
      else begin
        (* Walk the sealed records in sequence order, reading only the
           blocks each descriptor claims. *)
        let block i = Device.read_block t.dev (t.first_block + 1 + i) in
        match decode_records t ~records:record_count ~total:(t.blocks - 1) block with
        | Ok pages -> Committed pages
        | Error reason -> Corrupt reason
      end

let sequence t = t.seq
let committed_ops t = t.last_ops
