(* Tests for the boolean query engine (Hfad_index.Query): algebra,
   planner, parser, and a model-based property against set semantics. *)

module Device = Hfad_blockdev.Device
module Oid = Hfad_osd.Oid
module Tag = Hfad_index.Tag
module Query = Hfad_index.Query
module Fs = Hfad.Fs

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let oid_t = Alcotest.testable Oid.pp Oid.equal

(* A small fixture: 12 objects over three binary attributes, one object
   per attribute combination (plus duplicates), so expected results are
   computable by hand. *)
let mk () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  let fs = Fs.format ~config:(Fs.Config.v ~cache_pages:256 ~index_mode:Fs.Off ()) dev in
  let make people place year =
    Fs.create_exn fs
      ~names:
        ((Tag.User, people) :: (Tag.Udef, place) :: [ (Tag.Udef, year) ])
  in
  let a = make "margo" "hawaii" "y2008" in
  let b = make "margo" "hawaii" "y2009" in
  let c = make "margo" "boston" "y2008" in
  let d = make "nick" "hawaii" "y2008" in
  let e = make "nick" "boston" "y2009" in
  (fs, a, b, c, d, e)

let p tag v = Query.Pair (tag, v)
let user v = p Tag.User v
let udef v = p Tag.Udef v

let test_pair_eval () =
  let fs, a, b, c, _, _ = mk () in
  check (Alcotest.list oid_t) "single pair" [ a; b; c ]
    (Fs.query fs (user "margo"))

let test_and () =
  let fs, a, b, _, _, _ = mk () in
  check (Alcotest.list oid_t) "and" [ a; b ]
    (Fs.query fs Query.(user "margo" &&& udef "hawaii"));
  check (Alcotest.list oid_t) "triple and" [ a ]
    (Fs.query fs (Query.And [ user "margo"; udef "hawaii"; udef "y2008" ]))

let test_or () =
  let fs, a, b, c, d, e = mk () in
  check (Alcotest.list oid_t) "or" [ a; b; c; d; e ]
    (Fs.query fs Query.(udef "hawaii" ||| udef "boston"));
  check (Alcotest.list oid_t) "or dedups" [ a; b; c ]
    (Fs.query fs Query.(user "margo" ||| user "margo"))

let test_not_guarded () =
  let fs, a, b, _, _, _ = mk () in
  check (Alcotest.list oid_t) "and-not" [ a; b ]
    (Fs.query fs (Query.And [ user "margo"; Query.not_ (udef "boston") ]));
  check (Alcotest.list oid_t) "double negative narrowing" [ a ]
    (Fs.query fs
       (Query.And
          [ user "margo"; Query.not_ (udef "boston"); Query.not_ (udef "y2009") ]))

let test_nested () =
  let fs, a, b, _, d, _ = mk () in
  (* hawaii & (margo | nick-with-2008) *)
  let q =
    Query.And
      [
        udef "hawaii";
        Query.Or [ user "margo"; Query.And [ user "nick"; udef "y2008" ] ];
      ]
  in
  check (Alcotest.list oid_t) "nested" [ a; b; d ] (Fs.query fs q)

let test_unbounded_not_rejected () =
  let fs, _, _, _, _, _ = mk () in
  let reject q =
    try
      ignore (Fs.query fs q);
      Alcotest.fail "expected Unbounded_not"
    with Query.Unbounded_not _ -> ()
  in
  reject (Query.not_ (user "margo"));
  reject (Query.And [ Query.not_ (user "margo") ])

let test_empty_results () =
  let fs, _, _, _, _, _ = mk () in
  check (Alcotest.list oid_t) "no such value" []
    (Fs.query fs (user "nobody"));
  check (Alcotest.list oid_t) "contradiction" []
    (Fs.query fs Query.(udef "y2008" &&& udef "y2009"))

let test_estimate_bounds () =
  let fs, _, _, _, _, _ = mk () in
  let store = Fs.index_of_shard fs 0 in
  check Alcotest.int "pair" 3 (Query.estimate store (user "margo"));
  check Alcotest.bool "and bounded by min" true
    (Query.estimate store Query.(user "margo" &&& udef "y2009") <= 2);
  check Alcotest.int "or sums" 5
    (Query.estimate store Query.(user "margo" ||| user "nick"))

let test_explain_mentions_plan () =
  let fs, _, _, _, _, _ = mk () in
  let text =
    Query.explain (Fs.index_of_shard fs 0)
      (Query.And [ user "margo"; udef "y2009"; Query.not_ (udef "boston") ])
  in
  check Alcotest.bool "has intersect" true
    (Hfad_util.Strx.starts_with ~prefix:"intersect" (String.trim text));
  (* The cheaper conjunct (y2009, 2 hits) must be scanned before margo (3). *)
  let pos s sub =
    let rec find i =
      if i + String.length sub > String.length s then -1
      else if String.sub s i (String.length sub) = sub then i
      else find (i + 1)
    in
    find 0
  in
  check Alcotest.bool "cheapest first" true
    (pos text "UDEF/y2009" < pos text "USER/margo");
  check Alcotest.bool "difference last" true
    (pos text "difference" > pos text "USER/margo")

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* [Fs.explain] gives the plans [Fs.query] runs. On 4 shards an [ID]
   conjunct bounds the query to its owner, planned with the local id;
   without one, every shard plans the query as written. *)
let test_explain_sharded () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  let fs =
    Fs.format
      ~config:(Fs.Config.v ~cache_pages:256 ~index_mode:Fs.Off ~shards:4 ())
      dev
  in
  let oids =
    List.init 12 (fun _ -> Fs.create_exn fs ~names:[ (Tag.User, "margo") ])
  in
  let router = Hfad_shard.Router.create ~shards:4 in
  let g = List.nth oids 8 in
  let q = Query.And [ p Tag.Id (Oid.to_string g); user "margo" ] in
  let local = Oid.to_string (Hfad_shard.Router.to_local router g) in
  (match Fs.explain fs q with
  | [ (s, plan) ] ->
      check Alcotest.int "the owner shard" (Hfad_shard.Router.shard_of_oid router g) s;
      check Alcotest.bool "local id scanned" true
        (contains plan ("scan ID/" ^ local ^ " "));
      check Alcotest.bool "global id absent" false
        (contains plan ("ID/" ^ Oid.to_string g ^ " "))
  | plans -> Alcotest.failf "%d plans for an ID query" (List.length plans));
  check (Alcotest.list oid_t) "the query finds it" [ g ] (Fs.query fs q);
  check (Alcotest.list Alcotest.int) "one plan per shard" [ 0; 1; 2; 3 ]
    (List.map fst (Fs.explain fs (user "margo")))

let test_explain_unsharded () =
  let fs, _, _, _, _, _ = mk () in
  let q = Query.And [ user "margo"; udef "y2009" ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "shard 0's plan of the query as written"
    [ (0, Query.explain (Fs.index_of_shard fs 0) q) ]
    (Fs.explain fs q)

(* --- parser -------------------------------------------------------------- *)

let qt = Alcotest.testable Query.pp Query.equal

let test_parse_atoms () =
  check qt "pair" (user "margo") (Query.of_string "USER/margo");
  check qt "case" (user "margo") (Query.of_string "user/margo");
  check qt "value with spaces trimmed" (udef "two words")
    (Query.of_string "UDEF/two words ")

let test_parse_operators () =
  check qt "and" (Query.And [ user "a"; user "b" ]) (Query.of_string "USER/a & USER/b");
  check qt "or" (Query.Or [ user "a"; user "b" ]) (Query.of_string "USER/a | USER/b");
  check qt "not" (Query.Not (user "a")) (Query.of_string "!USER/a");
  check qt "precedence: and binds tighter"
    (Query.Or [ Query.And [ user "a"; user "b" ]; user "c" ])
    (Query.of_string "USER/a & USER/b | USER/c");
  check qt "parens"
    (Query.And [ user "a"; Query.Or [ user "b"; user "c" ] ])
    (Query.of_string "USER/a & (USER/b | USER/c)")

let test_parse_errors () =
  let reject s =
    try
      ignore (Query.of_string s);
      Alcotest.failf "accepted %S" s
    with Query.Parse_error _ -> ()
  in
  reject "";
  reject "USER/a &";
  reject "& USER/a";
  reject "(USER/a";
  reject "USER/a)";
  reject "noslash";
  (* Values are greedy up to the next operator: this is ONE pair whose
     value contains a space, not a syntax error. *)
  check qt "greedy value" (user "a USER/b") (Query.of_string "USER/a USER/b")

let test_roundtrip_through_syntax =
  let gen =
    QCheck.Gen.(
      sized (fun n ->
          fix
            (fun self n ->
              let atom =
                map
                  (fun i -> Query.Pair (Tag.Udef, Printf.sprintf "v%d" i))
                  (int_bound 5)
              in
              if n <= 1 then atom
              else
                frequency
                  [
                    (2, atom);
                    ( 2,
                      map2
                        (fun a b -> Query.And [ a; b ])
                        (self (n / 2)) (self (n / 2)) );
                    ( 2,
                      map2
                        (fun a b -> Query.Or [ a; b ])
                        (self (n / 2)) (self (n / 2)) );
                    (1, map (fun a -> Query.Not a) (self (n / 2)));
                  ])
            n))
  in
  qtest
    (QCheck.Test.make ~name:"query parses back from to_string" ~count:300
       (QCheck.make ~print:Query.to_string gen)
       (fun q -> Query.equal (Query.of_string (Query.to_string q)) q))

(* Model-based semantics: evaluate queries against explicit attribute
   sets and compare with the engine. *)
let prop_set_semantics =
  let attrs = [| "a"; "b"; "c" |] in
  let gen_query =
    QCheck.Gen.(
      sized (fun n ->
          fix
            (fun self n ->
              let atom = map (fun i -> `Atom attrs.(i mod 3)) (int_bound 2) in
              if n <= 1 then atom
              else
                frequency
                  [
                    (3, atom);
                    (2, map2 (fun a b -> `And (a, b)) (self (n / 2)) (self (n / 2)));
                    (2, map2 (fun a b -> `Or (a, b)) (self (n / 2)) (self (n / 2)));
                    (1, map (fun a -> `AndNot a) (self (n / 2)));
                  ])
            n))
  in
  let rec to_query = function
    | `Atom v -> Query.Pair (Tag.Udef, v)
    | `And (a, b) -> Query.And [ to_query a; to_query b ]
    | `Or (a, b) -> Query.Or [ to_query a; to_query b ]
    | `AndNot a ->
        (* guard the negation with a positive catch-all attribute *)
        Query.And [ Query.Pair (Tag.Udef, "all"); Query.Not (to_query a) ]
  in
  let rec holds attrs_of oid = function
    | `Atom v -> List.mem v (attrs_of oid)
    | `And (a, b) -> holds attrs_of oid a && holds attrs_of oid b
    | `Or (a, b) -> holds attrs_of oid a || holds attrs_of oid b
    | `AndNot a -> not (holds attrs_of oid a)
  in
  QCheck.Test.make ~name:"query engine matches set semantics" ~count:100
    (QCheck.pair (QCheck.make gen_query)
       (QCheck.small_list (QCheck.int_bound 7)))
    (fun (absq, memberships) ->
      let dev = Device.create ~block_size:1024 ~blocks:8192 () in
      let fs = Fs.format ~config:(Fs.Config.v ~cache_pages:128 ~index_mode:Fs.Off ()) dev in
      let objects =
        List.map
          (fun mask ->
            let oid = Fs.create_exn fs ~names:[ (Tag.Udef, "all") ] in
            Array.iteri
              (fun bit attr ->
                if mask land (1 lsl bit) <> 0 then Fs.name_exn fs oid Tag.Udef attr)
              attrs;
            (oid, mask))
          memberships
      in
      let attrs_of oid =
        let mask = List.assoc oid objects in
        Array.to_list attrs
        |> List.filteri (fun bit _ -> mask land (1 lsl bit) <> 0)
      in
      let expected =
        objects
        |> List.filter (fun (oid, _) -> holds attrs_of oid absq)
        |> List.map fst
        |> List.sort_uniq Oid.compare
      in
      Fs.query fs (to_query absq) = expected)

let suite =
  [
    Alcotest.test_case "pair eval" `Quick test_pair_eval;
    Alcotest.test_case "and" `Quick test_and;
    Alcotest.test_case "or" `Quick test_or;
    Alcotest.test_case "guarded not" `Quick test_not_guarded;
    Alcotest.test_case "nested" `Quick test_nested;
    Alcotest.test_case "unbounded not rejected" `Quick test_unbounded_not_rejected;
    Alcotest.test_case "empty results" `Quick test_empty_results;
    Alcotest.test_case "estimates" `Quick test_estimate_bounds;
    Alcotest.test_case "explain plan" `Quick test_explain_mentions_plan;
    Alcotest.test_case "explain plans the shards a query visits" `Quick
      test_explain_sharded;
    Alcotest.test_case "explain unsharded" `Quick test_explain_unsharded;
    Alcotest.test_case "parse atoms" `Quick test_parse_atoms;
    Alcotest.test_case "parse operators" `Quick test_parse_operators;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    test_roundtrip_through_syntax;
    qtest prop_set_semantics;
  ]
