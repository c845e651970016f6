module Btree = Hfad_btree.Btree
module Oid = Hfad_osd.Oid
module Codec = Hfad_util.Codec

type t = { tree : Btree.t; mutex : Mutex.t }

let create tree = { tree; mutex = Mutex.create () }

let locked t f =
  Mutex.lock t.mutex;
  match f () with
  | result ->
      Mutex.unlock t.mutex;
      result
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

(* --- key construction --------------------------------------------------- *)

let postings_key term oid = "P" ^ term ^ "\000" ^ Oid.to_key oid
let postings_prefix term = "P" ^ term ^ "\000"
let forward_key oid term = "G" ^ Oid.to_key oid ^ term
let forward_prefix oid = "G" ^ Oid.to_key oid
let df_key term = "F" ^ term
let doc_key oid = "D" ^ Oid.to_key oid
let count_key = "N"
let mark_prefix = "X"
let mark_key oid = mark_prefix ^ Oid.to_key oid

let encode_int v =
  let buf = Bytes.create 10 in
  Bytes.sub_string buf 0 (Codec.put_varint buf 0 v)

let decode_int s = fst (Codec.get_varint (Bytes.unsafe_of_string s) 0)

(* Postings key -> (term, oid): 'P' term '\000' oid8. *)
let split_postings_key k =
  let sep = String.index_from k 1 '\000' in
  (String.sub k 1 (sep - 1), Oid.of_key (String.sub k (sep + 1) 8))

(* --- indexing -------------------------------------------------------------- *)

let doc_terms t oid =
  let prefix = forward_prefix oid in
  Btree.fold_prefix t.tree ~prefix ~init:[] (fun acc k _ ->
      String.sub k (String.length prefix)
        (String.length k - String.length prefix)
      :: acc)
  |> List.rev

(* A counter's new binding: zero unbinds it. *)
let counter key delta old =
  let current = match old with Some v -> decode_int v | None -> 0 in
  let next = current + delta in
  if next < 0 then Fmt.failwith "Fulltext: counter %S underflow" key
  else if next = 0 then None
  else Some (encode_int next)

let rec distinct_sorted = function
  | a :: (b :: _ as rest) -> Oid.compare a b <> 0 && distinct_sorted rest
  | [ _ ] | [] -> true

(* A batch: its key changes in ascending key order, each with its
   function of the old value and the longest value it may bind ([None]:
   it only unbinds), which {!footprint} reads. *)
type batch = (string * (string option -> string option) * int option) list

(* A varint counter is at most this long. *)
let counter_bytes = 10

(* The one write path. Each document's old terms (its forward keys, in
   term order) are merged with its new term frequencies (sorted by
   term), and only what changed becomes a key change:
   - a term only in the old text loses its posting and forward key;
   - a term only in the new text gains them;
   - a term in both rebinds its posting, which the tree leaves alone if
     its frequency did not change.
   Each term's document-frequency delta is summed over the batch, so a
   term shared by many documents gets one update, and the document
   count moves once, by what the documents' records saw: "D" keys sort
   before "N", so their changes run first. Each document's mark goes
   last: "X" sorts after every index key, so a pass that raises has
   not yet unbound it. Every change is applied in one ascending pass
   over the tree. *)
let prepare t docs =
  locked t @@ fun () ->
  if not (distinct_sorted (List.sort Oid.compare (List.map fst docs))) then
    invalid_arg "Fulltext.prepare: an OID is listed twice";
  let changes = ref [] in
  let change key bound f = changes := (key, f, bound) :: !changes in
  let set value _ = value in
  let bind key value = change key (Some (String.length value)) (set (Some value)) in
  let unbind key = change key None (set None) in
  let df = Hashtbl.create 64 in
  let df_delta term d =
    Hashtbl.replace df term (d + Option.value ~default:0 (Hashtbl.find_opt df term))
  in
  let docs_delta = ref 0 in
  let document (oid, text) =
    let news =
      match text with Some text -> Tokenizer.term_frequencies text | None -> []
    in
    let drop term =
      unbind (postings_key term oid);
      unbind (forward_key oid term);
      df_delta term (-1)
    and add (term, tf) =
      bind (postings_key term oid) (encode_int tf);
      bind (forward_key oid term) "";
      df_delta term 1
    in
    let rec merge olds news =
      match (olds, news) with
      | [], _ -> List.iter add news
      | _, [] -> List.iter drop olds
      | o :: olds', ((n, tf) as nt) :: news' ->
          let c = String.compare o n in
          if c < 0 then (drop o; merge olds' news)
          else if c > 0 then (add nt; merge olds news')
          else begin
            bind (postings_key n oid) (encode_int tf);
            merge olds' news'
          end
    in
    merge (doc_terms t oid) news;
    let record =
      Option.map
        (fun _ -> encode_int (List.fold_left (fun acc (_, n) -> acc + n) 0 news))
        text
    in
    change (doc_key oid) (Some counter_bytes) (fun old ->
        (match (old, record) with
        | None, Some _ -> incr docs_delta
        | Some _, None -> decr docs_delta
        | None, None | Some _, Some _ -> ());
        record);
    unbind (mark_key oid)
  in
  List.iter document docs;
  let counter_change key f = change key (Some counter_bytes) f in
  Hashtbl.iter
    (fun term d -> if d <> 0 then counter_change (df_key term) (counter (df_key term) d))
    df;
  counter_change count_key (fun old -> counter count_key !docs_delta old);
  List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !changes

let footprint t (batch : batch) =
  locked t (fun () ->
      Btree.footprint t.tree (List.map (fun (key, _, bound) -> (key, bound)) batch))

let apply t (batch : batch) =
  locked t (fun () ->
      Btree.apply_sorted t.tree (List.map (fun (key, f, _) -> (key, f)) batch))

let index_batch t docs = apply t (prepare t docs)

let add_document t oid text = index_batch t [ (oid, Some text) ]
let remove_document t oid = index_batch t [ (oid, None) ]

let is_indexed t oid = locked t (fun () -> Btree.mem t.tree (doc_key oid))

let doc_count t =
  locked t (fun () ->
      match Btree.find t.tree count_key with
      | Some v -> decode_int v
      | None -> 0)

(* --- marks -------------------------------------------------------------------- *)

let mark t oid = locked t (fun () -> Btree.put t.tree ~key:(mark_key oid) ~value:"")

let marked t =
  locked t (fun () ->
      Btree.fold_prefix t.tree ~prefix:mark_prefix ~init:[] (fun acc k _ ->
          Oid.of_key (String.sub k 1 8) :: acc)
      |> List.rev)

(* --- queries ------------------------------------------------------------------ *)

let document_frequency_unlocked t term =
  match Btree.find t.tree (df_key term) with
  | Some v -> decode_int v
  | None -> 0

let document_frequency t term =
  locked t (fun () -> document_frequency_unlocked t term)

let postings_unlocked t term =
  Btree.fold_prefix t.tree ~prefix:(postings_prefix term) ~init:[]
    (fun acc k v ->
      let _, oid = split_postings_key k in
      (oid, decode_int v) :: acc)
  |> List.rev

let postings t term = locked t (fun () -> postings_unlocked t term)

let mem_posting t term oid =
  locked t (fun () ->
      match Tokenizer.tokens term with
      | [ term ] -> Btree.mem t.tree (postings_key term oid)
      | _ -> false)

let normalize_terms terms =
  terms
  |> List.concat_map Tokenizer.tokens
  |> List.sort_uniq String.compare

(* Intersect ascending (oid, tf) lists, summing a per-document weight. *)
let intersect lists =
  match lists with
  | [] -> []
  | first :: rest ->
      List.fold_left
        (fun acc l ->
          let rec go xs ys =
            match (xs, ys) with
            | [], _ | _, [] -> []
            | (ox, wx) :: xs', (oy, wy) :: ys' ->
                let c = Oid.compare ox oy in
                if c = 0 then (ox, wx +. wy) :: go xs' ys'
                else if c < 0 then go xs' ys
                else go xs ys'
          in
          go acc l)
        first rest

let search_scored t terms =
  locked t (fun () ->
      let terms = normalize_terms terms in
      if terms = [] then []
      else begin
        let n_docs =
          match Btree.find t.tree count_key with
          | Some v -> decode_int v
          | None -> 0
        in
        (* Cheapest-term-first intersection: order by document frequency. *)
        let by_df =
          terms
          |> List.map (fun term -> (document_frequency_unlocked t term, term))
          |> List.sort compare
        in
        match by_df with
        | (0, _) :: _ -> []  (* some term matches nothing: empty conjunction *)
        | ordered ->
            let idf df =
              log (float_of_int (1 + n_docs) /. float_of_int (1 + df)) +. 1.
            in
            let weighted =
              List.map
                (fun (df, term) ->
                  List.map
                    (fun (oid, tf) -> (oid, float_of_int tf *. idf df))
                    (postings_unlocked t term))
                ordered
            in
            intersect weighted
            |> List.sort (fun (oa, sa) (ob, sb) ->
                   match compare sb sa with 0 -> Oid.compare oa ob | c -> c)
      end)

let search t terms =
  search_scored t terms |> List.map fst |> List.sort Oid.compare

let search_text t query = search_scored t [ query ]

(* --- verification ---------------------------------------------------------------- *)

let verify t =
  locked t (fun () ->
      let fail fmt = Format.kasprintf failwith fmt in
      Btree.verify t.tree;
      (* Collect ground truth from the postings. *)
      let df = Hashtbl.create 64 in
      let docs = Hashtbl.create 64 in
      Btree.fold_prefix t.tree ~prefix:"P" ~init:() (fun () k _ ->
          let term, oid = split_postings_key k in
          Hashtbl.replace df term
            (1 + Option.value ~default:0 (Hashtbl.find_opt df term));
          Hashtbl.replace docs (Oid.to_int64 oid) ());
      (* Document frequencies must match. *)
      Btree.fold_prefix t.tree ~prefix:"F" ~init:() (fun () k v ->
          let term = String.sub k 1 (String.length k - 1) in
          let recorded = decode_int v in
          let actual = Option.value ~default:0 (Hashtbl.find_opt df term) in
          if recorded <> actual then
            fail "df(%s) = %d but %d postings exist" term recorded actual;
          Hashtbl.remove df term);
      if Hashtbl.length df <> 0 then fail "postings exist without df record";
      (* Doc records must match the postings' documents. *)
      let recorded_docs =
        Btree.fold_prefix t.tree ~prefix:"D" ~init:0 (fun acc k _ ->
            let oid = Oid.of_key (String.sub k 1 8) in
            (* A document of only stopwords has no postings; tolerate. *)
            ignore oid;
            acc + 1)
      in
      Hashtbl.iter
        (fun oid () ->
          if not (Btree.mem t.tree (doc_key (Oid.of_int64 oid))) then
            fail "orphan postings for oid %Ld" oid)
        docs;
      let n =
        match Btree.find t.tree count_key with
        | Some v -> decode_int v
        | None -> 0
      in
      if n <> recorded_docs then
        fail "doc count %d but %d document records" n recorded_docs;
      (* Forward index agrees with postings. *)
      Btree.fold_prefix t.tree ~prefix:"G" ~init:() (fun () k _ ->
          let oid = Oid.of_key (String.sub k 1 8) in
          let term = String.sub k 9 (String.length k - 9) in
          if not (Btree.mem t.tree (postings_key term oid)) then
            fail "forward entry (%a, %s) without posting" Oid.pp oid term))
