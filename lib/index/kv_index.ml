module Btree = Hfad_btree.Btree
module Oid = Hfad_osd.Oid

exception Value_not_indexable of string

type t = { tree : Btree.t; fwd : string; rev : string; max_value_len : int }

let create tree ~namespace =
  if String.contains namespace '\001' || String.contains namespace '\002' then
    invalid_arg "Kv_index.create: reserved byte in namespace";
  {
    tree;
    fwd = namespace ^ "\001";
    rev = namespace ^ "\002";
    (* forward key = ns + 1 + value + 1 (separator) + 8 (oid) *)
    max_value_len = Btree.max_key_size tree - String.length namespace - 10;
  }

let max_value_len t = t.max_value_len

(* Every key of namespace [ns] starts [ns '\001'] or [ns '\002'], and
   no namespace holds either byte. So a key's namespace ends at its
   first such byte, and no other namespace has a key in
   [\[ns '\001', ns '\003')]: one seek to [ns '\003'] skips all of [ns]. *)
let namespaces tree =
  let rec namespace_of k i =
    if i = String.length k then
      failwith "Kv_index.namespaces: key outside any namespace"
    else if k.[i] = '\001' || k.[i] = '\002' then String.sub k 0 i
    else namespace_of k (i + 1)
  in
  let rec scan from acc =
    match Btree.seek tree from with
    | None -> List.rev acc
    | Some (k, _) ->
        let ns = namespace_of k 0 in
        scan (ns ^ "\003") (ns :: acc)
  in
  scan "" []

let check_value t value =
  if String.contains value '\000' then raise (Value_not_indexable value);
  if String.length value > t.max_value_len then raise (Value_not_indexable value)

let fwd_key t value oid = t.fwd ^ value ^ "\000" ^ Oid.to_key oid
let rev_key t oid value = t.rev ^ Oid.to_key oid ^ value

(* Forward key -> (value, oid). *)
let split_fwd t k =
  let payload = String.sub k (String.length t.fwd) (String.length k - String.length t.fwd) in
  (* The oid is the 8 trailing bytes; the '\000' separator precedes it.
     Values contain no '\000', so this parse is unambiguous. *)
  let n = String.length payload in
  (String.sub payload 0 (n - 9), Oid.of_key (String.sub payload (n - 8) 8))

let add t oid value =
  check_value t value;
  Btree.put t.tree ~key:(fwd_key t value oid) ~value:"";
  Btree.put t.tree ~key:(rev_key t oid value) ~value:""

let remove t oid value =
  let existed = Btree.remove t.tree (fwd_key t value oid) in
  ignore (Btree.remove t.tree (rev_key t oid value));
  existed

let mem t oid value = Btree.mem t.tree (fwd_key t value oid)

let lookup t value =
  Btree.fold_prefix t.tree ~prefix:(t.fwd ^ value ^ "\000") ~init:[]
    (fun acc k _ -> snd (split_fwd t k) :: acc)
  |> List.rev

let lookup_prefix t prefix =
  Btree.fold_prefix t.tree ~prefix:(t.fwd ^ prefix) ~init:[] (fun acc k _ ->
      split_fwd t k :: acc)
  |> List.rev

let values_of t oid =
  let prefix = t.rev ^ Oid.to_key oid in
  Btree.fold_prefix t.tree ~prefix ~init:[] (fun acc k _ ->
      String.sub k (String.length prefix) (String.length k - String.length prefix)
      :: acc)
  |> List.rev

let drop_object t oid =
  let values = values_of t oid in
  List.iter (fun value -> ignore (remove t oid value)) values;
  List.length values

let cardinal t =
  Btree.fold_prefix t.tree ~prefix:t.fwd ~init:0 (fun acc _ _ -> acc + 1)

let count_value t value =
  Btree.fold_prefix t.tree ~prefix:(t.fwd ^ value ^ "\000") ~init:0
    (fun acc _ _ -> acc + 1)

exception Capped of int

let count_value_capped t value ~cap =
  try
    Btree.fold_prefix t.tree ~prefix:(t.fwd ^ value ^ "\000") ~init:0
      (fun acc _ _ -> if acc + 1 >= cap then raise (Capped cap) else acc + 1)
  with Capped n -> n

let verify t =
  let fail fmt = Format.kasprintf failwith fmt in
  let fwd_pairs =
    Btree.fold_prefix t.tree ~prefix:t.fwd ~init:[] (fun acc k _ ->
        split_fwd t k :: acc)
  in
  List.iter
    (fun (value, oid) ->
      if not (Btree.mem t.tree (rev_key t oid value)) then
        fail "forward (%s, %a) lacks reverse entry" value Oid.pp oid)
    fwd_pairs;
  let rev_count =
    Btree.fold_prefix t.tree ~prefix:t.rev ~init:0 (fun acc k _ ->
        let payload =
          String.sub k (String.length t.rev) (String.length k - String.length t.rev)
        in
        let oid = Oid.of_key (String.sub payload 0 8) in
        let value = String.sub payload 8 (String.length payload - 8) in
        if not (Btree.mem t.tree (fwd_key t value oid)) then
          fail "reverse (%a, %s) lacks forward entry" Oid.pp oid value;
        acc + 1)
  in
  if rev_count <> List.length fwd_pairs then
    fail "forward/reverse cardinality mismatch: %d vs %d"
      (List.length fwd_pairs) rev_count
