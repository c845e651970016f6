module Oid = Hfad_osd.Oid

let hash_of_bytes payload =
  let n = String.length payload in
  if n = 0 then 0L
  else begin
    (* Mean intensity per window of n/64 bytes (at least 1). *)
    let means = Array.make 64 0. in
    let window = max 1 (n / 64) in
    for w = 0 to 63 do
      let start = w * window in
      if start < n then begin
        let stop = min n (start + window) in
        let sum = ref 0 in
        for i = start to stop - 1 do
          sum := !sum + Char.code payload.[i]
        done;
        means.(w) <- float_of_int !sum /. float_of_int (stop - start)
      end
    done;
    let global = Array.fold_left ( +. ) 0. means /. 64. in
    let hash = ref 0L in
    for w = 0 to 63 do
      if means.(w) > global then
        hash := Int64.logor !hash (Int64.shift_left 1L w)
    done;
    !hash
  end

let hash_to_value h = Printf.sprintf "%016Lx" h

let value_to_hash s =
  if String.length s <> 16 then invalid_arg "Image_index.value_to_hash: length";
  match Int64.of_string_opt ("0x" ^ s) with
  | Some h -> h
  | None -> invalid_arg "Image_index.value_to_hash: not hex"

let hamming a b =
  let rec popcount x acc =
    if x = 0L then acc
    else popcount (Int64.logand x (Int64.sub x 1L)) (acc + 1)
  in
  popcount (Int64.logxor a b) 0

(* IMAGE is an ordinary namespace, so a value that is not a hash is
   some other name, not a match. *)
let near h ~max_distance names =
  List.filter_map
    (fun (value, oid) ->
      match hamming h (value_to_hash value) with
      | d when d <= max_distance -> Some (oid, d)
      | _ | (exception Invalid_argument _) -> None)
    names
  |> List.sort (fun (oa, da) (ob, db) ->
         match Int.compare da db with 0 -> Oid.compare oa ob | c -> c)
