(* Multi-object transactions and snapshot reads: atomic visibility,
   validation-time rejection, apply-time rollback, cross-shard refusal,
   the Fs.sync entry point, snapshot stability (unit + property), and a
   concurrent-commit serializability property replayed serially from a
   committed log. Crash-atomicity of a committed plan is swept in
   test_failures.ml. *)

module Device = Hfad_blockdev.Device
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module Oid = Hfad_osd.Oid
module Osd = Hfad_osd.Osd
module Kv_index = Hfad_index.Kv_index
module Rng = Hfad_util.Rng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let mk ?(shards = 1) ?(journal_pages = 0) () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  Fs.format
    ~config:
      (Fs.Config.v ~cache_pages:512 ~index_mode:Fs.Eager ~shards ~journal_pages
         ())
    dev

let oid_t = Alcotest.testable Oid.pp Oid.equal
let find fs key = Fs.lookup_one fs [ (Tag.Udef, key) ]
let found fs key = Option.get (find fs key)

(* --- commit ---------------------------------------------------------- *)

let test_commit_all_visible () =
  let fs = mk () in
  let base = Fs.create_exn ~names:[ (Tag.Udef, "base") ] ~content:"v0" fs in
  let fresh =
    Fs.with_txn_exn fs (fun tx ->
        let fresh =
          Fs.Txn.create tx ~names:[ (Tag.Udef, "fresh") ] ~content:"hello"
        in
        Fs.Txn.write tx base ~off:0 "v1";
        Fs.Txn.append tx fresh " world";
        Fs.Txn.name tx base Tag.Udef "base2";
        fresh)
  in
  check Alcotest.string "staged write applied" "v1" (Fs.read_all fs base);
  check Alcotest.string "created + appended in-plan" "hello world"
    (Fs.read_all fs fresh);
  check Alcotest.bool "second name landed" true (find fs "base2" <> None);
  check Alcotest.bool "created oid is the returned one" true
    (Oid.equal (found fs "fresh") fresh)

let test_empty_plan_is_noop () =
  let fs = mk () in
  check Alcotest.int "value returned" 42 (Fs.with_txn_exn fs (fun _tx -> 42))

(* --- abort ----------------------------------------------------------- *)

let test_callback_exception_aborts () =
  let fs = mk () in
  (match
     Fs.with_txn fs (fun tx ->
         ignore (Fs.Txn.create tx ~names:[ (Tag.Udef, "ghost") ]);
         raise Exit)
   with
  | exception Exit -> ()
  | Ok _ | Error _ -> Alcotest.fail "Exit did not propagate");
  check Alcotest.bool "nothing applied" true (find fs "ghost" = None)

let test_validation_rejects_whole_plan () =
  let fs = mk () in
  let victim = Fs.create_exn ~names:[ (Tag.Udef, "victim") ] fs in
  Fs.delete_exn fs victim;
  (match
     Fs.with_txn fs (fun tx ->
         ignore (Fs.Txn.create tx ~names:[ (Tag.Udef, "ghost") ]);
         (* Validation catches the dead target before ANY op applies. *)
         Fs.Txn.delete tx victim)
   with
  | Error (Fs.Txn_invalid _) -> ()
  | Ok () -> Alcotest.fail "plan with dead target committed"
  | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_message e));
  check Alcotest.bool "nothing applied" true (find fs "ghost" = None)

let test_apply_failure_rolls_back () =
  let fs = mk () in
  let base = Fs.create_exn ~names:[ (Tag.Udef, "rb") ] ~content:"keep" fs in
  (* A NUL byte passes validation but the index refuses it at apply
     time — after the plan's earlier ops already ran. *)
  (match
     Fs.with_txn fs (fun tx ->
         ignore (Fs.Txn.create tx ~names:[ (Tag.Udef, "doomed") ]);
         Fs.Txn.write tx base ~off:0 "gone";
         Fs.Txn.name tx base Tag.Udef "bad\000value")
   with
  | exception Kv_index.Value_not_indexable _ -> ()
  | Ok () -> Alcotest.fail "unindexable name committed"
  | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_message e));
  check Alcotest.bool "created object undone" true (find fs "doomed" = None);
  check Alcotest.string "write undone" "keep" (Fs.read_all fs base);
  (* Eager: the index shows the restored bytes as soon as the call
     returns, not the rolled-back ones. *)
  let hits q = List.map fst (Fs.search fs q) in
  check (Alcotest.list oid_t) "rolled-back words not found" [] (hits "gone");
  check (Alcotest.list oid_t) "kept words found" [ base ] (hits "keep");
  let a = Fs.create_exn ~names:[ (Tag.Udef, "ra") ] ~content:"survivor" fs in
  (match
     Fs.with_txn fs (fun tx ->
         Fs.Txn.delete tx a;
         Fs.Txn.name tx base Tag.Udef "bad\000value")
   with
  | exception Kv_index.Value_not_indexable _ -> ()
  | Ok () -> Alcotest.fail "unindexable name committed"
  | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_message e));
  check Alcotest.bool "delete undone" true (Fs.exists fs a);
  check (Alcotest.list oid_t) "undeleted object searchable" [ a ]
    (hits "survivor");
  Fs.verify fs

let test_cross_shard_rejected () =
  let fs = mk ~shards:4 () in
  (* Round-robin placement: consecutive creates land on distinct
     shards, so a plan touching both cannot stay on one. *)
  let a = Fs.create_exn ~names:[ (Tag.Udef, "sa") ] ~content:"a" fs in
  let b = Fs.create_exn ~names:[ (Tag.Udef, "sb") ] ~content:"b" fs in
  (match
     Fs.with_txn fs (fun tx ->
         Fs.Txn.write tx a ~off:0 "x";
         Fs.Txn.write tx b ~off:0 "y")
   with
  | Error (Fs.Txn_invalid _) -> ()
  | Ok () -> Alcotest.fail "cross-shard plan committed"
  | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_message e));
  check Alcotest.string "first op not applied" "a" (Fs.read_all fs a);
  check Alcotest.string "second op not applied" "b" (Fs.read_all fs b)

(* --- single-op paths share the executor ------------------------------ *)

let test_single_op_rename () =
  let fs = mk () in
  let oid = Fs.create_exn ~names:[ (Tag.User, "margo") ] ~content:"c" fs in
  check Alcotest.bool "rename removed the old binding" true
    (Fs.rename_exn fs oid Tag.User ~from_:"margo" ~to_:"root");
  check Alcotest.bool "old name gone" true
    (Fs.lookup_one fs [ (Tag.User, "margo") ] = None);
  check Alcotest.bool "new name resolves" true
    (match Fs.lookup_one fs [ (Tag.User, "root") ] with
    | Some o -> Oid.equal o oid
    | None -> false)

(* Each op checks what it would refuse before it changes anything, so
   a single op leaves no trace, and a plan's rollback covers every step
   applied before the refusal. *)
let test_bad_names_refused_before_change () =
  let fs = mk () in
  let a = Fs.create_exn ~names:[ (Tag.Udef, "keep") ] ~content:"old" fs in
  let count = Fs.object_count fs in
  let refused what f =
    match f () with
    | exception Kv_index.Value_not_indexable _ -> ()
    | _ -> Alcotest.failf "%s: bad name accepted" what
  in
  let unchanged what =
    check Alcotest.string (what ^ ": old bytes") "old" (Fs.read_all fs a);
    check Alcotest.bool (what ^ ": old name") true (find fs "keep" = Some a);
    check Alcotest.int (what ^ ": no new object") count (Fs.object_count fs);
    check Alcotest.bool (what ^ ": no name bound") true (find fs "ok" = None)
  in
  let bad_create tx =
    ignore (Fs.Txn.create tx ~names:[ (Tag.Udef, "ok"); (Tag.Udef, "bad\000") ])
  in
  refused "rename" (fun () ->
      Fs.rename fs a Tag.Udef ~from_:"keep" ~to_:"bad\000");
  unchanged "rename";
  refused "create" (fun () ->
      Fs.create ~names:[ (Tag.Udef, "ok"); (Tag.Udef, "bad\000") ] fs);
  unchanged "create";
  refused "plan: write, rename" (fun () ->
      Fs.with_txn fs (fun tx ->
          Fs.Txn.write tx a ~off:0 "new";
          Fs.Txn.rename tx a Tag.Udef ~from_:"keep" ~to_:"bad\000"));
  unchanged "plan: write, rename";
  refused "plan: write, create" (fun () ->
      Fs.with_txn fs (fun tx ->
          Fs.Txn.write tx a ~off:0 "new";
          bad_create tx));
  unchanged "plan: write, create";
  (* Undoing a name the object already had must keep it. *)
  refused "plan: name again, bad name" (fun () ->
      Fs.with_txn fs (fun tx ->
          Fs.Txn.name tx a Tag.Udef "keep";
          Fs.Txn.name tx a Tag.Udef "bad\000"));
  unchanged "plan: name again, bad name";
  Fs.verify fs

(* §3.1.2's insert and two-argument truncate are plan steps like any
   other: they apply, and a later failure rolls them back to the exact
   old size — past the end included, where an undo must neither leave
   nor invent a zero-filled gap. *)
let test_insert_remove_bytes_in_plans () =
  let fs = mk () in
  let a = Fs.create_exn ~names:[ (Tag.Udef, "ir") ] ~content:"0123456789" fs in
  Fs.with_txn_exn fs (fun tx ->
      Fs.Txn.stage tx (Fs.Op.Insert { oid = a; off = 2; data = "ab" });
      Fs.Txn.stage tx (Fs.Op.Remove_bytes { oid = a; off = 0; len = 1 }));
  check Alcotest.string "both applied" "1ab23456789" (Fs.read_all fs a);
  let rolls_back what op =
    let before = Fs.read_all fs a in
    (match
       Fs.with_txn fs (fun tx ->
           Fs.Txn.stage tx op;
           Fs.Txn.name tx a Tag.Udef "bad\000value")
     with
    | exception Kv_index.Value_not_indexable _ -> ()
    | Ok () -> Alcotest.failf "%s: unindexable name committed" what
    | Error e -> Alcotest.failf "%s: %s" what (Fs.error_message e));
    check Alcotest.string (what ^ ": bytes") before (Fs.read_all fs a);
    check Alcotest.int (what ^ ": size") (String.length before) (Fs.size fs a)
  in
  rolls_back "insert" (Fs.Op.Insert { oid = a; off = 3; data = "XYZ" });
  rolls_back "insert past the end"
    (Fs.Op.Insert { oid = a; off = 20; data = "tail" });
  rolls_back "remove_bytes" (Fs.Op.Remove_bytes { oid = a; off = 1; len = 4 });
  rolls_back "remove_bytes across the end"
    (Fs.Op.Remove_bytes { oid = a; off = 8; len = 10 });
  rolls_back "remove_bytes past the end"
    (Fs.Op.Remove_bytes { oid = a; off = 40; len = 5 });
  Fs.verify fs

(* One admission rule for every plan: a single op that cannot seal in
   one journal commit is refused whole, like an oversized wire PUT. *)
let test_oversized_single_op_refused () =
  let fs = mk ~journal_pages:64 () in
  let a = Fs.create_exn ~names:[ (Tag.Udef, "big") ] ~content:"small" fs in
  (match Fs.write fs a ~off:0 (String.make (64 * 1024) 'z') with
  | Error (Fs.Txn_invalid _) -> ()
  | Ok () -> Alcotest.fail "write larger than the journal applied"
  | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_message e));
  check Alcotest.string "object unchanged" "small" (Fs.read_all fs a);
  Fs.verify fs

(* The same rule checkpoints the shard first when a single op would
   overflow the journal together with the pages already dirty, so the
   op's own checkpoint is never split. *)
let test_single_op_checkpoints_first () =
  let fs = mk ~journal_pages:64 () in
  let oids =
    List.init 8 (fun i -> Fs.create_exn ~content:(string_of_int i) fs)
  in
  Fs.sync_exn ~mode:`Checkpoint fs;
  List.iter (fun oid -> Fs.write_exn fs oid ~off:0 "dirty") oids;
  let osd = Fs.osd_of_shard fs 0 in
  let dirty = Hfad_pager.Pager.dirty_count (Osd.pager osd) in
  let cap = Osd.journal_capacity_pages osd in
  let seq = Osd.journal_sequence osd in
  (* 40 data pages of 1 KiB: fits the journal alone, not with the rest. *)
  let big = String.make (40 * 1024) 'z' in
  check Alcotest.bool "precondition: fits alone, not with the dirty set" true
    (40 + 8 <= cap && dirty + 40 > cap);
  Fs.write_exn fs (List.hd oids) ~off:0 big;
  check Alcotest.bool "checkpointed before the op" true
    (Osd.journal_sequence osd > seq);
  check Alcotest.string "op applied" big (Fs.read_all fs (List.hd oids));
  Fs.verify fs

(* A single op is not pre-validated: its own error, with the global
   OID, crosses the API. *)
let test_single_op_error_is_global () =
  let fs = mk ~shards:4 () in
  for i = 1 to 4 do
    let g = Fs.create_exn ~content:(string_of_int i) fs in
    Fs.delete_exn fs g;
    match Fs.write fs g ~off:0 "again" with
    | Error (Fs.No_such_object o) -> check oid_t "global OID" g o
    | Ok () -> Alcotest.fail "write to a deleted object applied"
    | Error e -> Alcotest.failf "wrong error: %s" (Fs.error_message e)
  done

let test_sync_modes () =
  let fs = mk () in
  ignore (Fs.create_exn ~names:[ (Tag.Udef, "s") ] ~content:"x" fs);
  Fs.sync_exn ~mode:`Checkpoint fs;
  Fs.sync_exn fs;
  check Alcotest.bool "object durable" true (find fs "s" <> None)

(* --- snapshots ------------------------------------------------------- *)

let test_snapshot_stability () =
  let fs = mk () in
  let a = Fs.create_exn ~names:[ (Tag.Udef, "a") ] ~content:"alpha" fs in
  let b = Fs.create_exn ~names:[ (Tag.Udef, "b") ] ~content:"beta" fs in
  let snap = Fs.snapshot fs in
  Fs.write_exn fs a ~off:0 "ALPHA";
  Fs.delete_exn fs b;
  let c = Fs.create_exn ~names:[ (Tag.Udef, "c") ] ~content:"gamma" fs in
  check Alcotest.string "pinned read of mutated object" "alpha"
    (Fs.Snapshot.read_all snap a);
  check Alcotest.string "deleted object still readable" "beta"
    (Fs.Snapshot.read_all snap b);
  check Alcotest.bool "deleted object exists at pin" true
    (Fs.Snapshot.exists snap b);
  check Alcotest.bool "created-after is invisible" false
    (Fs.Snapshot.exists snap c);
  check Alcotest.string "live read unaffected" "ALPHA" (Fs.read_all fs a);
  Fs.Snapshot.release snap;
  Fs.Snapshot.release snap;
  (* released: reads must refuse *)
  (match Fs.Snapshot.read_all snap a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "read after release accepted");
  check Alcotest.string "live state intact after release" "ALPHA"
    (Fs.read_all fs a)

let test_snapshot_spans_txn () =
  let fs = mk () in
  let a = Fs.create_exn ~names:[ (Tag.Udef, "a") ] ~content:"old" fs in
  Fs.with_snapshot fs (fun snap ->
      Fs.with_txn_exn fs (fun tx ->
          Fs.Txn.write tx a ~off:0 "new";
          ignore (Fs.Txn.create tx ~names:[ (Tag.Udef, "t") ]));
      check Alcotest.string "snapshot blind to the txn" "old"
        (Fs.Snapshot.read_all snap a);
      check Alcotest.bool "txn-created invisible" false
        (Fs.Snapshot.exists snap (found fs "t")));
  check Alcotest.string "txn visible live" "new" (Fs.read_all fs a)

(* Random mutations against a recorded pre-state: every pinned read
   stays byte-identical until release. *)
let prop_snapshot_read_stability =
  QCheck.Test.make ~count:15 ~name:"snapshot reads are stable"
    (QCheck.make (QCheck.Gen.int_range 0 10_000))
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let fs = mk () in
      let n = 6 in
      let oids =
        Array.init n (fun i ->
            Fs.create_exn
              ~names:[ (Tag.Udef, Printf.sprintf "o%d" i) ]
              ~content:(Printf.sprintf "content-%d-%d" seed i)
              fs)
      in
      let pre = Array.map (fun oid -> Fs.read_all fs oid) oids in
      let alive = Array.make n true in
      let snap = Fs.snapshot fs in
      for _ = 1 to 40 do
        let i = Rng.int rng n in
        match Rng.int rng 5 with
        | 0 when alive.(i) ->
            Fs.write_exn fs oids.(i) ~off:0 (Printf.sprintf "w%d" i)
        | 1 when alive.(i) -> Fs.append_exn fs oids.(i) "+"
        | 2 when alive.(i) -> Fs.truncate_exn fs oids.(i) (Rng.int rng 8)
        | 3 when alive.(i) ->
            Fs.delete_exn fs oids.(i);
            alive.(i) <- false
        | _ -> ignore (Fs.create_exn ~content:"noise" fs)
      done;
      let stable = ref true in
      Array.iteri
        (fun i oid ->
          if Fs.Snapshot.read_all snap oid <> pre.(i) then stable := false)
        oids;
      Fs.Snapshot.release snap;
      Fs.verify fs;
      !stable)

(* --- serializability under concurrent commit ------------------------- *)

(* Each transaction appends a marker to a shared log object and to two
   data objects — one plan, fully determined by its id. Committed
   concurrently from several domains, the log records the commit order;
   replaying the same plans serially in that order on a fresh stack must
   reproduce every byte, which is exactly serializability for
   append-only plans. *)
let txn_plan i =
  let t1 = i mod 4 and t2 = (i + 1) mod 4 in
  (Printf.sprintf "T%d;" i, t1, Printf.sprintf "a%d;" i, t2,
   Printf.sprintf "b%d;" i)

let stage_plan tx ~log ~objs i =
  let marker, t1, d1, t2, d2 = txn_plan i in
  Fs.Txn.append tx log marker;
  Fs.Txn.append tx objs.(t1) d1;
  Fs.Txn.append tx objs.(t2) d2

let mk_arena () =
  let fs = mk () in
  let log = Fs.create_exn ~names:[ (Tag.Udef, "log") ] ~content:"" fs in
  let objs =
    Array.init 4 (fun i ->
        Fs.create_exn ~names:[ (Tag.Udef, Printf.sprintf "o%d" i) ] ~content:"" fs)
  in
  (fs, log, objs)

let prop_concurrent_txns_serializable =
  QCheck.Test.make ~count:8 ~name:"concurrent txns serialize"
    (QCheck.make (QCheck.Gen.int_range 0 10_000))
    (fun _seed ->
      let fs, log, objs = mk_arena () in
      let domains = 3 and per_domain = 4 in
      let workers =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                for k = 0 to per_domain - 1 do
                  let i = (d * per_domain) + k in
                  Fs.with_txn_exn fs (fun tx ->
                      stage_plan tx ~log ~objs i)
                done))
      in
      List.iter Domain.join workers;
      (* Parse the commit order out of the log. *)
      let committed =
        String.split_on_char ';' (Fs.read_all fs log)
        |> List.filter (fun s -> s <> "")
        |> List.map (fun s ->
               Scanf.sscanf s "T%d" (fun i -> i))
      in
      if List.length committed <> domains * per_domain then false
      else begin
        (* Serial replay in log order on a fresh, identical arena. *)
        let fs', log', objs' = mk_arena () in
        List.iter
          (fun i ->
            Fs.with_txn_exn fs' (fun tx ->
                stage_plan tx ~log:log' ~objs:objs' i))
          committed;
        let same = ref (Fs.read_all fs log = Fs.read_all fs' log') in
        Array.iteri
          (fun k oid ->
            if Fs.read_all fs oid <> Fs.read_all fs' objs'.(k) then
              same := false)
          objs;
        Fs.verify fs;
        !same
      end)

let suite =
  [
    Alcotest.test_case "commit: all ops visible" `Quick test_commit_all_visible;
    Alcotest.test_case "empty plan is a no-op" `Quick test_empty_plan_is_noop;
    Alcotest.test_case "callback exception aborts" `Quick
      test_callback_exception_aborts;
    Alcotest.test_case "validation rejects whole plan" `Quick
      test_validation_rejects_whole_plan;
    Alcotest.test_case "apply failure rolls back" `Quick
      test_apply_failure_rolls_back;
    Alcotest.test_case "cross-shard plan rejected" `Quick
      test_cross_shard_rejected;
    Alcotest.test_case "single-op rename" `Quick test_single_op_rename;
    Alcotest.test_case "bad names refused before change" `Quick
      test_bad_names_refused_before_change;
    Alcotest.test_case "insert and remove_bytes in plans" `Quick
      test_insert_remove_bytes_in_plans;
    Alcotest.test_case "oversized single op refused" `Quick
      test_oversized_single_op_refused;
    Alcotest.test_case "single op checkpoints first" `Quick
      test_single_op_checkpoints_first;
    Alcotest.test_case "single-op error names the global OID" `Quick
      test_single_op_error_is_global;
    Alcotest.test_case "sync modes: checkpoint and barrier" `Quick
      test_sync_modes;
    Alcotest.test_case "snapshot stability" `Quick test_snapshot_stability;
    Alcotest.test_case "snapshot spans a txn" `Quick test_snapshot_spans_txn;
    qtest prop_snapshot_read_stability;
    qtest prop_concurrent_txns_serializable;
  ]
