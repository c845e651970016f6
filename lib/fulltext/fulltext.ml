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

let encode_int v =
  let buf = Bytes.create 10 in
  Bytes.sub_string buf 0 (Codec.put_varint buf 0 v)

let decode_int s = fst (Codec.get_varint (Bytes.unsafe_of_string s) 0)

(* Postings key -> (term, oid): 'P' term '\000' oid8. *)
let split_postings_key k =
  let sep = String.index_from k 1 '\000' in
  (String.sub k 1 (sep - 1), Oid.of_key (String.sub k (sep + 1) 8))

(* --- counters ------------------------------------------------------------ *)

let bump t key delta =
  let current =
    match Btree.find t.tree key with Some v -> decode_int v | None -> 0
  in
  let next = current + delta in
  if next < 0 then Fmt.failwith "Fulltext: counter %S underflow" key
  else if next = 0 then ignore (Btree.remove t.tree key)
  else Btree.put t.tree ~key ~value:(encode_int next)

(* --- indexing -------------------------------------------------------------- *)

let doc_terms t oid =
  let prefix = forward_prefix oid in
  Btree.fold_prefix t.tree ~prefix ~init:[] (fun acc k _ ->
      String.sub k (String.length prefix)
        (String.length k - String.length prefix)
      :: acc)
  |> List.rev

(* A term of [oid]'s text is its posting, its forward key and one unit
   of its document frequency. *)
let add_term t oid (term, tf) =
  Btree.put t.tree ~key:(postings_key term oid) ~value:(encode_int tf);
  Btree.put t.tree ~key:(forward_key oid term) ~value:"";
  bump t (df_key term) 1

let drop_term t oid term =
  ignore (Btree.remove t.tree (postings_key term oid));
  ignore (Btree.remove t.tree (forward_key oid term));
  bump t (df_key term) (-1)

let remove_unlocked t oid =
  match Btree.find t.tree (doc_key oid) with
  | None -> ()
  | Some _ ->
      List.iter (drop_term t oid) (doc_terms t oid);
      ignore (Btree.remove t.tree (doc_key oid));
      bump t count_key (-1)

(* Reindex by merging the document's old terms (forward keys, in key
   order) with its new term frequencies (sorted by term), writing only
   what changed: a term in both texts keeps its forward key and document
   frequency, and its posting is rewritten only if its frequency
   changed. *)
let add_document t oid text =
  locked t (fun () ->
      let terms = Tokenizer.term_frequencies text in
      let total_tokens = List.fold_left (fun acc (_, n) -> acc + n) 0 terms in
      let old_total = Btree.find t.tree (doc_key oid) in
      let rec merge olds news =
        match (olds, news) with
        | [], _ -> List.iter (add_term t oid) news
        | _, [] -> List.iter (drop_term t oid) olds
        | o :: olds', ((n, tf) as nt) :: news' ->
            let c = String.compare o n in
            if c < 0 then (drop_term t oid o; merge olds' news)
            else if c > 0 then (add_term t oid nt; merge olds news')
            else begin
              let key = postings_key n oid and value = encode_int tf in
              if Btree.find t.tree key <> Some value then
                Btree.put t.tree ~key ~value;
              merge olds' news'
            end
      in
      merge (if old_total = None then [] else doc_terms t oid) terms;
      let total = encode_int total_tokens in
      if old_total <> Some total then
        Btree.put t.tree ~key:(doc_key oid) ~value:total;
      if old_total = None then bump t count_key 1)

let remove_document t oid = locked t (fun () -> remove_unlocked t oid)

let is_indexed t oid = locked t (fun () -> Btree.mem t.tree (doc_key oid))

let doc_count t =
  locked t (fun () ->
      match Btree.find t.tree count_key with
      | Some v -> decode_int v
      | None -> 0)

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
