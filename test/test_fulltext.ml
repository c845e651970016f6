(* Tests for Hfad_fulltext: Tokenizer, Fulltext, and lazy indexing through
   Index_store's dirty set. *)

module Device = Hfad_blockdev.Device
module Pager = Hfad_pager.Pager
module Buddy = Hfad_alloc.Buddy
module Btree = Hfad_btree.Btree
module Osd = Hfad_osd.Osd
module Oid = Hfad_osd.Oid
module Index_store = Hfad_index.Index_store
module Tokenizer = Hfad_fulltext.Tokenizer
module Fulltext = Hfad_fulltext.Fulltext

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let oid i = Oid.of_int64 (Int64.of_int i)
let oid_t = Alcotest.testable Oid.pp Oid.equal

(* A fresh index with its backing tree and pager, for tests that look
   under the index. *)
let mk_index_tree () =
  let dev = Device.create ~block_size:1024 ~blocks:8192 () in
  let pager = Pager.create ~cache_pages:256 dev in
  let buddy = Buddy.create ~first_block:0 ~blocks:8192 () in
  let alloc =
    {
      Btree.alloc_page = (fun () -> Buddy.alloc buddy 1);
      Btree.free_page = (fun p -> Buddy.free buddy p);
    }
  in
  let root = Buddy.alloc buddy 1 in
  let tree = Btree.create pager alloc ~root in
  (Fulltext.create tree, tree, pager)

let mk_index () =
  let ft, _, _ = mk_index_tree () in
  ft

(* --- Tokenizer --------------------------------------------------------- *)

let test_tokenizer_basic () =
  check (Alcotest.list Alcotest.string) "lowercase + split"
    [ "hello"; "world" ]
    (Tokenizer.tokens "Hello, WORLD!")

let test_tokenizer_stopwords () =
  check (Alcotest.list Alcotest.string) "stopwords removed"
    [ "cat"; "sat"; "mat" ]
    (Tokenizer.tokens "the cat sat on the mat")

let test_tokenizer_short_tokens_dropped () =
  check (Alcotest.list Alcotest.string) "single chars dropped" [ "ab" ]
    (Tokenizer.tokens "a b c ab")

let test_tokenizer_numbers () =
  check (Alcotest.list Alcotest.string) "alphanumerics kept"
    [ "photo"; "2009"; "img42" ]
    (Tokenizer.tokens "photo 2009 img42")

let test_tokenizer_long_token_truncated () =
  let long = String.make 100 'x' in
  match Tokenizer.tokens long with
  | [ tok ] -> check Alcotest.int "truncated" Tokenizer.max_token_len (String.length tok)
  | other -> Alcotest.failf "expected one token, got %d" (List.length other)

let test_tokenizer_custom_stopwords () =
  check (Alcotest.list Alcotest.string) "custom list"
    [ "the"; "word" ]
    (Tokenizer.tokens ~stopwords:[ "banana" ] "the banana word")

let test_term_frequencies () =
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "counts" [ ("blue", 1); ("fish", 2) ]
    (Tokenizer.term_frequencies "fish blue fish")

let test_is_term () =
  check Alcotest.bool "valid" true (Tokenizer.is_term "hello42");
  check Alcotest.bool "upper" false (Tokenizer.is_term "Hello");
  check Alcotest.bool "short" false (Tokenizer.is_term "h");
  check Alcotest.bool "space" false (Tokenizer.is_term "two words")

let prop_tokens_are_terms =
  qtest
    (QCheck.Test.make ~name:"every emitted token is a valid term" ~count:300
       QCheck.(string_of_size QCheck.Gen.(0 -- 200))
       (fun text -> List.for_all Tokenizer.is_term (Tokenizer.tokens text)))

(* --- Fulltext ----------------------------------------------------------- *)

let test_index_and_search () =
  let ft = mk_index () in
  Fulltext.add_document ft (oid 1) "the quick brown fox";
  Fulltext.add_document ft (oid 2) "the quick red dog";
  Fulltext.add_document ft (oid 3) "lazy brown dog";
  check (Alcotest.list oid_t) "single term" [ oid 1; oid 3 ]
    (Fulltext.search ft [ "brown" ]);
  check (Alcotest.list oid_t) "conjunction" [ oid 3 ]
    (Fulltext.search ft [ "brown"; "dog" ]);
  check (Alcotest.list oid_t) "no match" [] (Fulltext.search ft [ "cat" ]);
  check (Alcotest.list oid_t) "conjunction with dead term" []
    (Fulltext.search ft [ "brown"; "cat" ]);
  check Alcotest.int "doc count" 3 (Fulltext.doc_count ft);
  Fulltext.verify ft

let test_search_normalizes_query () =
  let ft = mk_index () in
  Fulltext.add_document ft (oid 1) "Margo wrote BerkeleyDB";
  check (Alcotest.list oid_t) "case folded" [ oid 1 ]
    (Fulltext.search ft [ "MARGO" ]);
  check (Alcotest.list oid_t) "punctuation stripped" [ oid 1 ]
    (Fulltext.search ft [ "margo," ])

let test_document_frequency () =
  let ft = mk_index () in
  Fulltext.add_document ft (oid 1) "alpha beta";
  Fulltext.add_document ft (oid 2) "alpha gamma";
  check Alcotest.int "df alpha" 2 (Fulltext.document_frequency ft "alpha");
  check Alcotest.int "df beta" 1 (Fulltext.document_frequency ft "beta");
  check Alcotest.int "df missing" 0 (Fulltext.document_frequency ft "delta")

let test_postings_tf () =
  let ft = mk_index () in
  Fulltext.add_document ft (oid 5) "echo echo echo canyon";
  check
    (Alcotest.list (Alcotest.pair oid_t Alcotest.int))
    "term frequency" [ (oid 5, 3) ] (Fulltext.postings ft "echo")

let test_reindex_replaces () =
  let ft = mk_index () in
  Fulltext.add_document ft (oid 1) "old content here";
  Fulltext.add_document ft (oid 1) "fresh words now";
  check (Alcotest.list oid_t) "old gone" [] (Fulltext.search ft [ "old" ]);
  check (Alcotest.list oid_t) "new found" [ oid 1 ] (Fulltext.search ft [ "fresh" ]);
  check Alcotest.int "still one doc" 1 (Fulltext.doc_count ft);
  Fulltext.verify ft

let test_remove_document () =
  let ft = mk_index () in
  Fulltext.add_document ft (oid 1) "shared unique1";
  Fulltext.add_document ft (oid 2) "shared unique2";
  Fulltext.remove_document ft (oid 1);
  check Alcotest.bool "unindexed" false (Fulltext.is_indexed ft (oid 1));
  check (Alcotest.list oid_t) "survivor still found" [ oid 2 ]
    (Fulltext.search ft [ "shared" ]);
  check Alcotest.int "df decremented" 1 (Fulltext.document_frequency ft "shared");
  check Alcotest.int "df zero removes record" 0
    (Fulltext.document_frequency ft "unique1");
  Fulltext.remove_document ft (oid 1);  (* idempotent *)
  check Alcotest.int "doc count" 1 (Fulltext.doc_count ft);
  Fulltext.verify ft

let test_scoring_prefers_rare_terms () =
  let ft = mk_index () in
  (* "common" appears everywhere; "rare" in one doc. A query for both
     must rank the doc that has rare high; and between two docs with the
     same terms, higher tf wins. *)
  for i = 1 to 20 do
    Fulltext.add_document ft (oid i) "common filler words everywhere"
  done;
  Fulltext.add_document ft (oid 100) "common rare";
  Fulltext.add_document ft (oid 101) "common rare rare rare";
  (match Fulltext.search_scored ft [ "rare" ] with
  | (first, s1) :: (second, s2) :: [] ->
      check oid_t "higher tf first" (oid 101) first;
      check oid_t "lower tf second" (oid 100) second;
      check Alcotest.bool "scores ordered" true (s1 > s2)
  | other -> Alcotest.failf "expected 2 hits, got %d" (List.length other));
  Fulltext.verify ft

let test_search_text () =
  let ft = mk_index () in
  Fulltext.add_document ft (oid 1) "vacation photos from hawaii beach";
  Fulltext.add_document ft (oid 2) "hawaii business trip";
  check
    (Alcotest.list oid_t)
    "free text query" [ oid 1 ]
    (List.map fst (Fulltext.search_text ft "Hawaii BEACH!"))

let test_empty_queries () =
  let ft = mk_index () in
  Fulltext.add_document ft (oid 1) "something";
  check (Alcotest.list oid_t) "empty list" [] (Fulltext.search ft []);
  check (Alcotest.list oid_t) "stopword-only query" []
    (Fulltext.search ft [ "the" ])

let test_stopword_only_document () =
  let ft = mk_index () in
  Fulltext.add_document ft (oid 1) "the and of";
  check Alcotest.int "counted" 1 (Fulltext.doc_count ft);
  Fulltext.remove_document ft (oid 1);
  check Alcotest.int "removed" 0 (Fulltext.doc_count ft);
  Fulltext.verify ft

let prop_search_finds_containing_docs =
  qtest
    (QCheck.Test.make ~name:"indexed term is always findable" ~count:60
       QCheck.(small_list (string_of_size QCheck.Gen.(1 -- 40)))
       (fun texts ->
         let ft = mk_index () in
         List.iteri (fun i text -> Fulltext.add_document ft (oid (i + 1)) text) texts;
         Fulltext.verify ft;
         List.for_all
           (fun (i, text) ->
             let id = oid (i + 1) in
             List.for_all
               (fun term -> List.exists (Oid.equal id) (Fulltext.search ft [ term ]))
               (Tokenizer.tokens text))
           (List.mapi (fun i text -> (i, text)) texts)))

(* --- Diffed reindex ---------------------------------------------------- *)

(* A reindex writes only the difference between the old and the new
   text, so the index it leaves must be exactly the one a fresh index of
   the current texts holds. The vocabulary is small and words repeat, so
   streams keep hitting shared terms, changed frequencies and texts of
   stopwords only. *)
let vocabulary = [| "apple"; "berry"; "cherry"; "apple"; "date"; "fig"; "the"; "and" |]

type ft_step = Add of int * string | Remove of int

let gen_ft_steps =
  QCheck.Gen.(
    let text =
      map (String.concat " ")
        (list_size (0 -- 9) (map (Array.get vocabulary) (0 -- 7)))
    in
    list_size (1 -- 25)
      (frequency
         [
           (4, map2 (fun i text -> Add (i, text)) (1 -- 6) text);
           (1, map (fun i -> Remove i) (1 -- 6));
         ]))

let print_ft_steps steps =
  String.concat "; "
    (List.map
       (function
         | Add (i, text) -> Printf.sprintf "add %d %S" i text
         | Remove i -> Printf.sprintf "remove %d" i)
       steps)

let prop_reindex_matches_fresh_index =
  qtest
    (QCheck.Test.make ~name:"diffed reindex equals a fresh index" ~count:150
       (QCheck.make ~print:print_ft_steps gen_ft_steps)
       (fun steps ->
         let ft, tree, _ = mk_index_tree () in
         let current = Hashtbl.create 8 in
         List.for_all
           (fun step ->
             (match step with
             | Add (i, text) ->
                 Fulltext.add_document ft (oid i) text;
                 Hashtbl.replace current i text
             | Remove i ->
                 Fulltext.remove_document ft (oid i);
                 Hashtbl.remove current i);
             Fulltext.verify ft;
             let fresh, fresh_tree, _ = mk_index_tree () in
             Hashtbl.to_seq current |> List.of_seq |> List.sort compare
             |> List.iter (fun (i, text) -> Fulltext.add_document fresh (oid i) text);
             Btree.to_list tree = Btree.to_list fresh_tree)
           steps))

(* Batch mode: random batches of adds, replaces and removes over 40
   documents, so a batch's pass crosses and splits leaves. After every
   batch the tree holds exactly the bindings a pure function of the
   current texts gives, and [verify] passes. *)
let pure_bindings docs =
  let enc n =
    let b = Bytes.create 10 in
    Bytes.sub_string b 0 (Hfad_util.Codec.put_varint b 0 n)
  in
  let df = Hashtbl.create 16 in
  let doc (i, text) =
    let o = Oid.to_key (oid i) in
    let tfs = Tokenizer.term_frequencies text in
    List.iter
      (fun (term, _) ->
        Hashtbl.replace df term (1 + Option.value ~default:0 (Hashtbl.find_opt df term)))
      tfs;
    ("D" ^ o, enc (List.fold_left (fun acc (_, n) -> acc + n) 0 tfs))
    :: List.concat_map
         (fun (term, tf) -> [ ("P" ^ term ^ "\000" ^ o, enc tf); ("G" ^ o ^ term, "") ])
         tfs
  in
  let docs_bindings = List.concat_map doc docs in
  let dfs = Hashtbl.fold (fun term n acc -> ("F" ^ term, enc n) :: acc) df [] in
  let count = if docs = [] then [] else [ ("N", enc (List.length docs)) ] in
  List.sort compare (docs_bindings @ dfs @ count)

let gen_ft_batches =
  QCheck.Gen.(
    let text =
      map (String.concat " ")
        (list_size (0 -- 9) (map (Array.get vocabulary) (0 -- 7)))
    in
    list_size (1 -- 10)
      (list_size (1 -- 20)
         (pair (1 -- 40) (frequency [ (4, map Option.some text); (1, return None) ]))))

let print_ft_batches batches =
  String.concat " | "
    (List.map
       (fun batch ->
         String.concat "; "
           (List.map
              (function
                | i, Some text -> Printf.sprintf "add %d %S" i text
                | i, None -> Printf.sprintf "remove %d" i)
              batch))
       batches)

let prop_batch_reindex_matches_pure_bindings =
  qtest
    (QCheck.Test.make ~name:"diffed reindex equals a fresh index, in batches"
       ~count:150
       (QCheck.make ~print:print_ft_batches gen_ft_batches)
       (fun batches ->
         let ft, tree, _ = mk_index_tree () in
         let current = Hashtbl.create 8 in
         List.for_all
           (fun batch ->
             let batch = List.sort_uniq (fun (a, _) (b, _) -> compare a b) batch in
             Fulltext.index_batch ft (List.map (fun (i, text) -> (oid i, text)) batch);
             List.iter
               (fun (i, text) ->
                 match text with
                 | Some text -> Hashtbl.replace current i text
                 | None -> Hashtbl.remove current i)
               batch;
             Fulltext.verify ft;
             Btree.to_list tree
             = pure_bindings (Hashtbl.to_seq current |> List.of_seq |> List.sort compare))
           batches))

let test_reindex_same_text_dirties_at_most_one_leaf () =
  let ft, tree, pager = mk_index_tree () in
  let text i =
    Printf.sprintf "report %d on the quarterly numbers %d and figures %d" i
      (i mod 7) (i mod 3)
  in
  for i = 1 to 200 do
    Fulltext.add_document ft (oid i) (text i)
  done;
  check Alcotest.bool "index spans several leaves" true (Btree.height tree > 1);
  Pager.flush pager;
  let before = Btree.to_list tree in
  Fulltext.add_document ft (oid 77) (text 77);
  check Alcotest.bool "no binding changed" true (before = Btree.to_list tree);
  check Alcotest.bool "at most the document record's leaf is dirty" true
    (Pager.dirty_count pager <= 1);
  Fulltext.verify ft

(* --- Lazy indexing --------------------------------------------------- *)

(* The backlog of unindexed text lives in Index_store: a write marks the
   object and a drain reads its bytes into the full-text index. *)
let test_lazy_staleness_until_drain () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  let osd = Osd.format ~config:(Osd.Config.v ~cache_pages:256 ()) dev in
  let store = Index_store.create osd in
  let ft = Index_store.fulltext store in
  let o1 = Osd.create_object osd in
  Osd.write osd o1 ~off:0 "pending document";
  Index_store.mark_dirty store o1;
  (* §3.4 laziness: not yet visible to search. *)
  check (Alcotest.list oid_t) "stale before drain" []
    (Fulltext.search ft [ "pending" ]);
  check Alcotest.int "marked" 1 (Index_store.backlog store);
  check Alcotest.int "drained" 1 (Index_store.drain store);
  check (Alcotest.list oid_t) "visible after drain" [ o1 ]
    (Fulltext.search ft [ "pending" ]);
  check Alcotest.int "backlog empty" 0 (Index_store.backlog store)

(* A drain unmarks its chunk only after the chunk applies. Crash-free
   read faults at every device read of a two-document drain (the
   objects' metadata and bytes, then the index's own pages) make it
   raise before anything is written: both documents stay marked and
   neither is searchable. Once the fault clears, the next drain indexes
   both. *)
let test_failed_drain_keeps_its_chunk_marked () =
  let build () =
    let dev = Device.create ~block_size:1024 ~blocks:16384 () in
    let osd = Osd.format ~config:(Osd.Config.v ~cache_pages:256 ()) dev in
    let store = Index_store.create osd in
    let oids =
      List.map
        (fun text ->
          let o = Osd.create_object osd in
          Osd.write osd o ~off:0 text;
          Index_store.mark_dirty store o;
          o)
        [ "first pending document"; "second pending document" ]
    in
    Osd.flush_exn osd;
    Pager.invalidate (Osd.pager osd);
    (dev, store, oids)
  in
  let reads =
    let dev, store, _ = build () in
    let n = ref 0 in
    Device.set_fault dev (fun op _ ->
        if op = Device.Read then incr n;
        false);
    ignore (Index_store.drain store);
    !n
  in
  check Alcotest.bool "the drain reads the device" true (reads > 2);
  for k = 0 to reads - 1 do
    let dev, store, oids = build () in
    let n = ref 0 in
    Device.set_fault dev (fun op _ ->
        op = Device.Read
        && begin
             incr n;
             !n > k
           end);
    (match Index_store.drain store with
    | _ -> Alcotest.failf "read %d/%d: the drain did not raise" k reads
    | exception Device.Io_error _ -> ());
    Device.clear_fault dev;
    let ft = Index_store.fulltext store in
    check Alcotest.int (Printf.sprintf "read %d: both still marked" k) 2
      (Index_store.backlog store);
    check (Alcotest.list oid_t) (Printf.sprintf "read %d: nothing indexed" k) []
      (Fulltext.search ft [ "pending" ]);
    check Alcotest.int "the next drain indexes both" 2 (Index_store.drain store);
    check (Alcotest.list oid_t) "both found" oids (Fulltext.search ft [ "pending" ]);
    Fulltext.verify ft
  done

let suite =
  [
    Alcotest.test_case "tokenizer basics" `Quick test_tokenizer_basic;
    Alcotest.test_case "tokenizer stopwords" `Quick test_tokenizer_stopwords;
    Alcotest.test_case "tokenizer drops short tokens" `Quick
      test_tokenizer_short_tokens_dropped;
    Alcotest.test_case "tokenizer alphanumerics" `Quick test_tokenizer_numbers;
    Alcotest.test_case "tokenizer truncates long tokens" `Quick
      test_tokenizer_long_token_truncated;
    Alcotest.test_case "tokenizer custom stopwords" `Quick
      test_tokenizer_custom_stopwords;
    Alcotest.test_case "term frequencies" `Quick test_term_frequencies;
    Alcotest.test_case "is_term" `Quick test_is_term;
    prop_tokens_are_terms;
    Alcotest.test_case "index and search" `Quick test_index_and_search;
    Alcotest.test_case "query normalization" `Quick test_search_normalizes_query;
    Alcotest.test_case "document frequency" `Quick test_document_frequency;
    Alcotest.test_case "postings carry tf" `Quick test_postings_tf;
    Alcotest.test_case "reindex replaces" `Quick test_reindex_replaces;
    Alcotest.test_case "remove document" `Quick test_remove_document;
    Alcotest.test_case "tf-idf ranking" `Quick test_scoring_prefers_rare_terms;
    Alcotest.test_case "search_text" `Quick test_search_text;
    Alcotest.test_case "empty queries" `Quick test_empty_queries;
    Alcotest.test_case "stopword-only document" `Quick test_stopword_only_document;
    prop_reindex_matches_fresh_index;
    prop_batch_reindex_matches_pure_bindings;
    Alcotest.test_case "re-adding the current text changes nothing" `Quick
      test_reindex_same_text_dirties_at_most_one_leaf;
    prop_search_finds_containing_docs;
    Alcotest.test_case "lazy: stale until drained" `Quick
      test_lazy_staleness_until_drain;
    Alcotest.test_case "lazy: a failed drain keeps its chunk marked" `Quick
      test_failed_drain_keeps_its_chunk_marked;
  ]
