module Codec = Hfad_util.Codec
module Counter = Hfad_metrics.Counter
module Registry = Hfad_metrics.Registry

type t =
  | Leaf of { entries : (string * string) array; next : int option }
  | Internal of { keys : string array; children : int array }

let tag_leaf = 1
let tag_internal = 2
let header_size = 1 + 2 + 4
let slot_size = 2

(* A slot is a u16 offset, so a page holds at most 64 KiB. *)
let max_page_size = 0x10000

let decodes = Registry.counter Registry.global "btree.node_decodes"

let empty_leaf () = Leaf { entries = [||]; next = None }

let leaf_entry_size k v = Codec.string_size k + Codec.string_size v + slot_size
let internal_entry_size k = Codec.string_size k + 4 + slot_size

let encoded_size = function
  | Leaf { entries; _ } ->
      Array.fold_left
        (fun acc (k, v) -> acc + leaf_entry_size k v)
        header_size entries
  | Internal { keys; _ } ->
      Array.fold_left
        (fun acc k -> acc + internal_entry_size k)
        header_size keys

(* Where entry [i]'s slot lies: the directory grows down from the page
   end, so entry 0's offset is in the page's last two bytes. *)
let slot_pos page i = Bytes.length page - (slot_size * (i + 1))

let encode node page =
  let size = encoded_size node and len = Bytes.length page in
  if size > len then
    invalid_arg
      (Printf.sprintf "Node.encode: node of %d bytes exceeds %d-byte page"
         size len);
  if len > max_page_size then
    invalid_arg (Printf.sprintf "Node.encode: %d-byte page is over 64 KiB" len);
  let stop =
    match node with
    | Leaf { entries; next } ->
        Codec.put_u8 page 0 tag_leaf;
        Codec.put_u16 page 1 (Array.length entries);
        Codec.put_u32 page 3 (match next with Some p -> p + 1 | None -> 0);
        let off = ref header_size in
        Array.iteri
          (fun i (k, v) ->
            Codec.put_u16 page (slot_pos page i) !off;
            off := Codec.put_string page !off k;
            off := Codec.put_string page !off v)
          entries;
        !off
    | Internal { keys; children } ->
        assert (Array.length children = Array.length keys + 1);
        Codec.put_u8 page 0 tag_internal;
        Codec.put_u16 page 1 (Array.length keys);
        Codec.put_u32 page 3 children.(0);
        let off = ref header_size in
        Array.iteri
          (fun i k ->
            Codec.put_u16 page (slot_pos page i) !off;
            off := Codec.put_string page !off k;
            Codec.put_u32 page !off children.(i + 1);
            off := !off + 4)
          keys;
        !off
  in
  (* Zero the gap so identical logical nodes encode to identical pages. *)
  if size < len then Bytes.fill page stop (len - size) '\000'

(* --- checks ----------------------------------------------------------- *)

let corrupt page off =
  Fmt.failwith "Node: entry at %d runs past the entries of a %d-byte page" off
    (Bytes.length page)

(* Offset of the slot directory of a page with [n] keys. *)
let directory page n =
  let d = Bytes.length page - (slot_size * n) in
  if d < header_size then
    Fmt.failwith "Node: the directory of %d keys does not fit a %d-byte page" n
      (Bytes.length page);
  d

let decode page =
  Counter.incr decodes;
  let tag = Codec.get_u8 page 0 in
  let nkeys = Codec.get_u16 page 1 in
  if tag <> tag_leaf && tag <> tag_internal then
    Fmt.failwith "Node.decode: unknown page tag %d" tag;
  let limit = directory page nkeys in
  let off = ref header_size in
  let checked o = if o > limit then corrupt page !off else o in
  if tag = tag_leaf then begin
    let next =
      match Codec.get_u32 page 3 with 0 -> None | p -> Some (p - 1)
    in
    let entries =
      Array.init nkeys (fun _ ->
          let k, o = Codec.get_string page !off in
          let v, o = Codec.get_string page o in
          off := checked o;
          (k, v))
    in
    Leaf { entries; next }
  end
  else begin
    let child0 = Codec.get_u32 page 3 in
    let pairs =
      Array.init nkeys (fun _ ->
          let k, o = Codec.get_string page !off in
          let c = Codec.get_u32 page o in
          off := checked (o + 4);
          (k, c))
    in
    let keys = Array.map fst pairs in
    let children =
      Array.init (nkeys + 1) (fun i ->
          if i = 0 then child0 else snd pairs.(i - 1))
    in
    Internal { keys; children }
  end

(* --- in place --------------------------------------------------------

   Every function below is a top-level loop over explicit arguments: a
   local [let rec] that captured the page would allocate a closure per
   call. Every read is bounds-checked. An entry is found through its
   slot, which must lie in [\[header_size, lim)], [lim] being the end of
   the entries; every string's extent is checked against [lim] before it
   is compared or copied. So a corrupt page raises instead of being read
   past its entries. *)

let is_leaf page =
  let tag = Char.code (Bytes.get page 0) in
  if tag = tag_leaf then true
  else if tag = tag_internal then false
  else Fmt.failwith "Node: unknown page tag %d" tag

let nkeys page = Bytes.get_uint16_be page 1
let get_u32 page off = Int32.to_int (Bytes.get_int32_be page off) land 0xFFFFFFFF

let next_leaf page = match get_u32 page 3 with 0 -> None | p -> Some (p - 1)

(* Continuation bytes of a varint length; page lengths fit in four. *)
let rec varint_tail page off shift acc =
  let b = Char.code (Bytes.get page off) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then acc
  else if shift >= 21 then corrupt page off
  else varint_tail page (off + 1) (shift + 7) acc

(* Length of the varint-prefixed string at [off]. *)
let str_len page off =
  let b = Char.code (Bytes.get page off) in
  if b < 0x80 then b else varint_tail page (off + 1) 7 (b land 0x7f)

(* Offset of the first byte of that string: its varint is canonical. *)
let str_start off len =
  if len < 0x80 then off + 1
  else if len < 0x4000 then off + 2
  else if len < 0x200000 then off + 3
  else off + 4

(* Offset just past the varint-prefixed string at [off]. *)
let skip_str page lim off =
  let len = str_len page off in
  let stop = str_start off len + len in
  if stop > lim then corrupt page off;
  stop

(* Offset just past the entry at [off]: a key and a value in a leaf, a
   key and a child pointer in an internal node. *)
let skip_entry page leaf lim off =
  if leaf then skip_str page lim (skip_str page lim off)
  else
    let stop = skip_str page lim off + 4 in
    if stop > lim then corrupt page off;
    stop

(* The offset that slot [i] holds, unchecked. *)
let slot page i = Bytes.get_uint16_be page (slot_pos page i)

let bad_slot i off lim =
  Fmt.failwith "Node: slot %d holds %d, outside the entries [%d, %d)" i off
    header_size lim

(* The end of the entries of a page with [n] keys: just past the entry
   the last slot names, which must end before the directory. *)
let entries_end page n =
  let d = directory page n in
  if n = 0 then header_size
  else begin
    let off = slot page (n - 1) in
    if off < header_size || off >= d then bad_slot (n - 1) off d;
    skip_entry page (is_leaf page) d off
  end

let used page =
  let n = nkeys page in
  entries_end page n + (slot_size * n)

(* The offset of entry [i], checked against the entries [\[header_size,
   lim)]. *)
let entry page lim i =
  let off = slot page i in
  if off < header_size || off >= lim then bad_slot i off lim;
  off

(* [lim] for an access to entry [i] of the page. *)
let entries_for page i =
  let n = nkeys page in
  if i < 0 || i >= n then
    invalid_arg (Printf.sprintf "Node: entry %d of %d" i n);
  entries_end page n

(* The sign of [String.compare] of page bytes [\[start, start + len)]
   with [k]: skip the common prefix eight bytes at a time (postings keys
   share long ones), then find the first difference. *)
let compare_bytes page start len k =
  let klen = String.length k in
  let n = if len < klen then len else klen in
  let i = ref 0 in
  while
    !i + 8 <= n
    && Bytes.get_int64_ne page (start + !i) = String.get_int64_ne k !i
  do
    i := !i + 8
  done;
  while !i < n && Bytes.get page (start + !i) = String.get k !i do
    incr i
  done;
  if !i < n then Char.compare (Bytes.get page (start + !i)) (String.get k !i)
  else Int.compare len klen

(* The sign of [String.compare] of the varint-prefixed string at [off]
   with [k]. *)
let compare_str page lim off k =
  let len = str_len page off in
  let start = str_start off len in
  if start + len > lim then corrupt page off;
  compare_bytes page start len k

let string_at page lim off =
  let len = str_len page off in
  let start = str_start off len in
  if start + len > lim then corrupt page off;
  Bytes.sub_string page start len

(* --- internal nodes ---------------------------------------------------- *)

(* The first separator index in [\[lo, hi)] whose key is [> k], or [hi]. *)
let rec route_in page lim k lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if compare_str page lim (entry page lim mid) k > 0 then route_in page lim k lo mid
    else route_in page lim k (mid + 1) hi

let route page k =
  let n = nkeys page in
  route_in page (entries_end page n) k 0 n

(* Child [i]: the header's pointer, or the one after separator [i - 1]. *)
let child_in page lim i =
  if i = 0 then get_u32 page 3
  else
    let ptr = skip_str page lim (entry page lim (i - 1)) in
    if ptr + 4 > lim then corrupt page ptr;
    get_u32 page ptr

let child_for page k =
  let n = nkeys page in
  let lim = entries_end page n in
  child_in page lim (route_in page lim k 0 n)

let child page i =
  let n = nkeys page in
  if i < 0 || i > n then invalid_arg "Node.child";
  child_in page (entries_end page n) i

let children page =
  if is_leaf page then [||]
  else begin
    let n = nkeys page in
    let lim = entries_end page n in
    Array.init (n + 1) (child_in page lim)
  end

(* --- leaves: an entry is addressed by its index ------------------------ *)

let rec search_in page lim k lo hi =
  if lo >= hi then -lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    let c = compare_str page lim (entry page lim mid) k in
    if c = 0 then mid
    else if c < 0 then search_in page lim k (mid + 1) hi
    else search_in page lim k lo mid

let search page k =
  let n = nkeys page in
  search_in page (entries_end page n) k 0 n

let lower_bound page k =
  let i = search page k in
  if i < 0 then -i - 1 else i

let floor_entry page k =
  let i = search page k in
  if i < 0 then -i - 2 else i

let value_at page i =
  let lim = entries_for page i in
  string_at page lim (skip_str page lim (entry page lim i))

let binding page i =
  let lim = entries_for page i in
  let off = entry page lim i in
  (string_at page lim off, string_at page lim (skip_str page lim off))

let rec fold_in page lim i stop f acc =
  if i < stop then begin
    let off = entry page lim i in
    acc := f !acc (string_at page lim off) (string_at page lim (skip_str page lim off));
    fold_in page lim (i + 1) stop f acc
  end

let fold_into page i stop f acc =
  let n = nkeys page in
  if i < 0 || stop > n then
    invalid_arg (Printf.sprintf "Node.fold_into: entries %d to %d of %d" i stop n);
  fold_in page (entries_end page n) i stop f acc

(* --- leaf updates: the bytes [encode] would write ------------------------ *)

let put_at page pos k v =
  let n = nkeys page in
  let lim = entries_end page n in
  let i = if pos < 0 then -pos - 1 else pos in
  if i > n || (pos >= 0 && i = n) then invalid_arg "Node.put_at";
  let off = if i = n then lim else entry page lim i in
  let old = if pos < 0 then 0 else skip_entry page true lim off - off in
  let size = Codec.string_size k + Codec.string_size v in
  let grow = size - old in
  let n' = if pos < 0 then n + 1 else n in
  let used' = lim + grow + (slot_size * n') in
  if used' > Bytes.length page then -1
  else begin
    if grow <> 0 then Bytes.blit page (off + old) page (off + size) (lim - off - old);
    ignore (Codec.put_string page (Codec.put_string page off k) v);
    if grow < 0 then Bytes.fill page (lim + grow) (-grow) '\000';
    if pos < 0 then begin
      (* The later slots move one place down the page, last first. *)
      for j = n - 1 downto i do
        Bytes.set_uint16_be page (slot_pos page (j + 1)) (slot page j + size)
      done;
      Bytes.set_uint16_be page (slot_pos page i) off;
      Bytes.set_uint16_be page 1 n'
    end
    else if grow <> 0 then
      for j = i + 1 to n - 1 do
        Bytes.set_uint16_be page (slot_pos page j) (slot page j + grow)
      done;
    used'
  end

let remove_at page i =
  let lim = entries_for page i in
  let n = nkeys page in
  let off = entry page lim i in
  let stop = skip_entry page true lim off in
  let size = stop - off in
  Bytes.blit page stop page off (lim - stop);
  Bytes.fill page (lim - size) size '\000';
  (* The later slots move one place up the page, first first. *)
  for j = i + 1 to n - 1 do
    Bytes.set_uint16_be page (slot_pos page (j - 1)) (slot page j - size)
  done;
  Bytes.set_uint16_be page (slot_pos page (n - 1)) 0;
  Bytes.set_uint16_be page 1 (n - 1);
  lim - size + (slot_size * (n - 1))

(* --- validation --------------------------------------------------------- *)

let slot_mismatch page =
  let n = nkeys page in
  let leaf = is_leaf page and lim = directory page n in
  let rec walk i off =
    if i = n then None
    else if slot page i <> off then Some i
    else walk (i + 1) (skip_entry page leaf lim off)
  in
  walk 0 header_size
