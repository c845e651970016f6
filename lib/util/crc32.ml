(* Slicing-by-8: [tables] holds eight 256-entry tables back to back.
   Table 0 is the classic byte-at-a-time table; entry [n] of table [k]
   is the CRC contribution of byte [n] followed by [k] zero bytes, so
   one step folds eight input bytes with eight independent lookups. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let[@inline] tab t k n = Array.unsafe_get t ((k lsl 8) lor n)
let[@inline] byte buf i = Char.code (Bytes.unsafe_get buf i)

let bytes ?(crc = 0l) buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Crc32.bytes: range out of bounds";
  let t = Lazy.force tables in
  let c = ref ((Int32.to_int crc land 0xFFFFFFFF) lxor 0xFFFFFFFF) in
  let stop8 = pos + (len land lnot 7) in
  let i = ref pos in
  while !i < stop8 do
    let p = !i in
    let lo =
      !c
      lxor (byte buf p
           lor (byte buf (p + 1) lsl 8)
           lor (byte buf (p + 2) lsl 16)
           lor (byte buf (p + 3) lsl 24))
    in
    c :=
      tab t 7 (lo land 0xFF)
      lxor tab t 6 ((lo lsr 8) land 0xFF)
      lxor tab t 5 ((lo lsr 16) land 0xFF)
      lxor tab t 4 (lo lsr 24)
      lxor tab t 3 (byte buf (p + 4))
      lxor tab t 2 (byte buf (p + 5))
      lxor tab t 1 (byte buf (p + 6))
      lxor tab t 0 (byte buf (p + 7));
    i := p + 8
  done;
  for p = stop8 to pos + len - 1 do
    c := tab t 0 ((!c lxor byte buf p) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let string s = bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
