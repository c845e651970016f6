module Codec = Hfad_util.Codec
module Counter = Hfad_metrics.Counter
module Registry = Hfad_metrics.Registry

type t =
  | Leaf of { entries : (string * string) array; next : int option }
  | Internal of { keys : string array; children : int array }

let tag_leaf = 1
let tag_internal = 2
let header_size = 1 + 2 + 4

let decodes = Registry.counter Registry.global "btree.node_decodes"

let empty_leaf () = Leaf { entries = [||]; next = None }

let leaf_entry_size k v = Codec.string_size k + Codec.string_size v
let internal_entry_size k = Codec.string_size k + 4

let encoded_size = function
  | Leaf { entries; _ } ->
      Array.fold_left
        (fun acc (k, v) -> acc + leaf_entry_size k v)
        header_size entries
  | Internal { keys; _ } ->
      Array.fold_left
        (fun acc k -> acc + internal_entry_size k)
        header_size keys

let encode node page =
  let size = encoded_size node in
  if size > Bytes.length page then
    invalid_arg
      (Printf.sprintf "Node.encode: node of %d bytes exceeds %d-byte page"
         size (Bytes.length page));
  (match node with
  | Leaf { entries; next } ->
      Codec.put_u8 page 0 tag_leaf;
      Codec.put_u16 page 1 (Array.length entries);
      Codec.put_u32 page 3 (match next with Some p -> p + 1 | None -> 0);
      let off = ref header_size in
      Array.iter
        (fun (k, v) ->
          off := Codec.put_string page !off k;
          off := Codec.put_string page !off v)
        entries
  | Internal { keys; children } ->
      assert (Array.length children = Array.length keys + 1);
      Codec.put_u8 page 0 tag_internal;
      Codec.put_u16 page 1 (Array.length keys);
      Codec.put_u32 page 3 children.(0);
      let off = ref header_size in
      Array.iteri
        (fun i k ->
          off := Codec.put_string page !off k;
          Codec.put_u32 page !off children.(i + 1);
          off := !off + 4)
        keys);
  (* Zero the tail so identical logical nodes encode to identical pages. *)
  if size < Bytes.length page then
    Bytes.fill page size (Bytes.length page - size) '\000'

let decode page =
  Counter.incr decodes;
  let tag = Codec.get_u8 page 0 in
  let nkeys = Codec.get_u16 page 1 in
  if tag = tag_leaf then begin
    let next =
      match Codec.get_u32 page 3 with 0 -> None | p -> Some (p - 1)
    in
    let off = ref header_size in
    let entries =
      Array.init nkeys (fun _ ->
          let k, o = Codec.get_string page !off in
          let v, o = Codec.get_string page o in
          off := o;
          (k, v))
    in
    Leaf { entries; next }
  end
  else if tag = tag_internal then begin
    let child0 = Codec.get_u32 page 3 in
    let off = ref header_size in
    let pairs =
      Array.init nkeys (fun _ ->
          let k, o = Codec.get_string page !off in
          let c = Codec.get_u32 page o in
          off := o + 4;
          (k, c))
    in
    let keys = Array.map fst pairs in
    let children =
      Array.init (nkeys + 1) (fun i ->
          if i = 0 then child0 else snd pairs.(i - 1))
    in
    Internal { keys; children }
  end
  else Fmt.failwith "Node.decode: unknown page tag %d" tag

(* --- in place --------------------------------------------------------

   Every function below is a top-level loop over explicit arguments: a
   local [let rec] that captured the page would allocate a closure per
   call. Every read is bounds-checked, and every string's extent is
   checked against the page before it is compared or skipped, so a
   corrupt page raises instead of being read past its end. *)

let corrupt page off =
  Fmt.failwith "Node: entry at %d runs past the end of a %d-byte page" off
    (Bytes.length page)

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
let skip_str page off =
  let len = str_len page off in
  let stop = str_start off len + len in
  if stop > Bytes.length page then corrupt page off;
  stop

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
let compare_key page off k =
  let len = str_len page off in
  let start = str_start off len in
  if start + len > Bytes.length page then corrupt page off;
  compare_bytes page start len k

let key_at page off =
  let len = str_len page off in
  Bytes.sub_string page (str_start off len) len

(* --- leaves: an entry is addressed by the offset of its key ----------- *)

let next_entry page off = skip_str page (skip_str page off)

let rec skip_entries page n off =
  if n = 0 then off else skip_entries page (n - 1) (next_entry page off)

let rec search_from page k n off =
  if n = 0 then -off - 1
  else
    let c = compare_key page off k in
    if c = 0 then off
    else if c > 0 then -off - 1
    else search_from page k (n - 1) (next_entry page off)

let search page k = search_from page k (nkeys page) header_size

let lower_bound page k =
  let pos = search page k in
  if pos < 0 then -pos - 1 else pos

let rec floor_from page k n off best =
  if n = 0 || compare_key page off k > 0 then best
  else floor_from page k (n - 1) (next_entry page off) off

let floor_entry page k = floor_from page k (nkeys page) header_size (-1)

let last_entry page =
  let n = nkeys page in
  if n = 0 then -1 else skip_entries page (n - 1) header_size

let value_at page off = key_at page (skip_str page off)
let binding page off = (key_at page off, value_at page off)

(* --- internal nodes ---------------------------------------------------- *)

let rec skip_separators page n off =
  if n = 0 then off
  else
    let stop = skip_str page off + 4 in
    if stop > Bytes.length page then corrupt page off;
    skip_separators page (n - 1) stop

let rec child_from page k n off child =
  if n = 0 || compare_key page off k > 0 then child
  else
    let ptr = skip_str page off in
    child_from page k (n - 1) (ptr + 4) (get_u32 page ptr)

let child_for page k = child_from page k (nkeys page) header_size (get_u32 page 3)

let rec route_from page k n off i =
  if n = 0 || compare_key page off k > 0 then i
  else route_from page k (n - 1) (skip_str page off + 4) (i + 1)

let route page k = route_from page k (nkeys page) header_size 0

let child page i =
  if i < 0 || i > nkeys page then invalid_arg "Node.child";
  if i = 0 then get_u32 page 3
  else get_u32 page (skip_separators page (i - 1) header_size |> skip_str page)

let children page =
  if is_leaf page then [||]
  else begin
    let n = nkeys page in
    let out = Array.make (n + 1) (get_u32 page 3) and off = ref header_size in
    for i = 1 to n do
      let ptr = skip_str page !off in
      out.(i) <- get_u32 page ptr;
      off := ptr + 4
    done;
    out
  end

let used page =
  if is_leaf page then skip_entries page (nkeys page) header_size
  else skip_separators page (nkeys page) header_size

(* --- leaf updates: the bytes [encode] would write ------------------------ *)

let put_at page pos k v =
  let used = used page in
  let off = if pos < 0 then -pos - 1 else pos in
  let old = if pos < 0 then 0 else next_entry page pos - pos in
  let size = leaf_entry_size k v in
  let used' = used - old + size in
  if used' > Bytes.length page then -1
  else begin
    Bytes.blit page (off + old) page (off + size) (used - off - old);
    ignore (Codec.put_string page (Codec.put_string page off k) v);
    if used' < used then Bytes.fill page used' (used - used') '\000';
    if pos < 0 then Bytes.set_uint16_be page 1 (nkeys page + 1);
    used'
  end

let remove_at page pos =
  let used = used page in
  let stop = next_entry page pos in
  let size = stop - pos in
  Bytes.blit page stop page pos (used - stop);
  Bytes.fill page (used - size) size '\000';
  Bytes.set_uint16_be page 1 (nkeys page - 1);
  used - size
