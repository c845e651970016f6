(* Multi-domain stress over the whole stack: reader domains hammer the
   naming and access interfaces while one writer mutates, then the
   full-system invariants are re-verified. This is the test behind the
   single-writer / multi-reader claim of the concurrency refactor: the
   stack-wide rwlock must keep readers consistent without serializing
   them against each other, and everything the writer did must survive
   [Fs.verify] afterwards. *)

module Device = Hfad_blockdev.Device
module Oid = Hfad_osd.Oid
module Tag = Hfad_index.Tag
module Rwlock = Hfad_util.Rwlock
module Rng = Hfad_util.Rng
module Fs = Hfad.Fs

let check = Alcotest.check

let mk () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  Fs.format ~config:(Fs.Config.v ~cache_pages:1024 ~index_mode:Fs.Eager ()) dev

let stable_objects = 32

(* A population of objects the readers query; the writer never touches
   them, so every observation has one correct answer. *)
let build_stable fs =
  Array.init stable_objects (fun i ->
      Fs.create_exn fs
        ~names:[ (Tag.Udef, Printf.sprintf "stable-%02d" i) ]
        ~content:(Printf.sprintf "stable payload number %d with aardvark" i))

let test_readers_vs_writer () =
  let fs = mk () in
  let stable = build_stable fs in
  let reader_domains = 4 and reader_ops = 300 and writer_ops = 200 in
  let reader_failures = Atomic.make 0 in
  let readers =
    List.init reader_domains (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.create (Int64.of_int (77 + d)) in
            for _ = 1 to reader_ops do
              let i = Rng.int rng stable_objects in
              let name = Printf.sprintf "stable-%02d" i in
              let expect_content =
                Printf.sprintf "stable payload number %d with aardvark" i
              in
              (* Resolution: exactly one object carries this name. *)
              (match Fs.lookup fs [ (Tag.Udef, name) ] with
              | [ oid ] when Oid.equal oid stable.(i) ->
                  (* Access: content must read back intact mid-churn. *)
                  if not (String.equal (Fs.read_all fs oid) expect_content)
                  then Atomic.incr reader_failures
              | _ -> Atomic.incr reader_failures);
              (* Enumeration: the stable population never changes. *)
              if
                List.length (Fs.list_names fs Tag.Udef ~prefix:"stable-")
                <> stable_objects
              then Atomic.incr reader_failures;
              (* Content search: every stable object mentions aardvark. *)
              if List.length (Fs.search fs "aardvark") < stable_objects then
                Atomic.incr reader_failures
            done))
  in
  let writer =
    Domain.spawn (fun () ->
        let rng = Rng.create 4242L in
        let live = ref [] in
        for k = 1 to writer_ops do
          let oid =
            Fs.create_exn fs
              ~names:[ (Tag.Udef, Printf.sprintf "churn-%04d" k) ]
              ~content:(Printf.sprintf "churn body %d zebra" k)
          in
          Fs.append_exn fs oid " appended";
          if k mod 3 = 0 then Fs.write_exn fs oid ~off:0 "CHURN";
          live := oid :: !live;
          (* Delete roughly half of what we created, keeping churn on
             both the create and delete paths. *)
          if Rng.int rng 2 = 0 then begin
            match !live with
            | oid :: rest ->
                Fs.delete_exn fs oid;
                live := rest
            | [] -> ()
          end
        done)
  in
  List.iter Domain.join readers;
  Domain.join writer;
  check Alcotest.int "no reader observed an inconsistency" 0
    (Atomic.get reader_failures);
  (* The storm must leave the structure sound. *)
  Fs.drain_index fs;
  Fs.verify fs;
  (* And the stable population untouched. *)
  Array.iteri
    (fun i oid ->
      check Alcotest.string
        (Printf.sprintf "stable %d content" i)
        (Printf.sprintf "stable payload number %d with aardvark" i)
        (Fs.read_all fs oid))
    stable

let test_pure_readers_take_no_exclusive_locks () =
  (* The acceptance condition of the refactor, as a test: reader-only
     load acquires the exclusive side zero times. *)
  let fs = mk () in
  let stable = build_stable fs in
  let lock = Fs.rwlock fs in
  Rwlock.reset_stats lock;
  let readers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.create (Int64.of_int (900 + d)) in
            for _ = 1 to 200 do
              let i = Rng.int rng stable_objects in
              ignore
                (Fs.lookup fs [ (Tag.Udef, Printf.sprintf "stable-%02d" i) ]);
              ignore (Fs.read_all fs stable.(i));
              ignore (Fs.list_names fs Tag.Udef ~prefix:"stable-")
            done))
  in
  List.iter Domain.join readers;
  let s = Rwlock.stats lock in
  check Alcotest.bool "shared side exercised" true
    (s.Rwlock.shared_acquisitions > 0);
  check Alcotest.int "zero exclusive acquisitions" 0
    s.Rwlock.exclusive_acquisitions;
  check Alcotest.int "zero exclusive waits" 0 s.Rwlock.exclusive_waits

let test_concurrent_writers_serialize () =
  (* Several mutating domains: the exclusive side must serialize them so
     object creation never collides; verify afterwards. *)
  let fs = mk () in
  let writers = 4 and per_writer = 50 in
  let spawned =
    List.init writers (fun d ->
        Domain.spawn (fun () ->
            List.init per_writer (fun k ->
                let oid =
                  Fs.create_exn fs
                    ~names:[ (Tag.Udef, Printf.sprintf "w%d-%03d" d k) ]
                    ~content:(Printf.sprintf "writer %d object %d" d k)
                in
                Fs.append_exn fs oid "!";
                oid)))
  in
  let oids = List.concat_map Domain.join spawned in
  let distinct = List.sort_uniq Oid.compare oids in
  check Alcotest.int "every created OID distinct" (writers * per_writer)
    (List.length distinct);
  check Alcotest.int "object count" (writers * per_writer)
    (Fs.object_count fs);
  Fs.drain_index fs;
  Fs.verify fs

(* A tag the index refuses must not leave the shard's slice registry
   locked: the next name on the same thread and a lookup on another
   domain both complete. *)
let test_refused_tag_does_not_wedge () =
  let fs = mk () in
  let oid = Fs.create_exn fs ~names:[ (Tag.Udef, "k") ] in
  (match Fs.name fs oid (Tag.Custom "a\001b") "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a tag with a reserved byte must raise");
  Fs.name_exn fs oid Tag.User "margo";
  check
    (Alcotest.list (Alcotest.testable Oid.pp Oid.equal))
    "lookup on another domain" [ oid ]
    (Watchdog.within "lookup on another domain" (fun () ->
         Fs.lookup fs [ (Tag.User, "margo") ]));
  Fs.verify fs

(* An overwrite that changes the length races [Fs.read_all]. Each
   overwrite is one plan (truncate, then write) under one exclusive
   section, so every read must return one whole value; a read that took
   the size and the bytes in two sections returned the long value cut
   to the short length. *)
let test_read_all_never_torn () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  let fs =
    Fs.format ~config:(Fs.Config.v ~cache_pages:1024 ~index_mode:Fs.Off ()) dev
  in
  let values = [| String.make 100 's'; String.make 300 'l' |] in
  let oid = Fs.create_exn fs ~content:values.(0) in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          incr n;
          Fs.with_txn_exn fs (fun tx ->
              Fs.Txn.truncate tx oid 0;
              Fs.Txn.write tx oid ~off:0 values.(!n land 1));
          if !n mod 64 = 0 then Fs.sync_exn ~mode:`Checkpoint fs
        done;
        !n)
  in
  let reads, torn =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () ->
        Watchdog.within ~seconds:30.0 "reads racing overwrites" (fun () ->
            let deadline = Unix.gettimeofday () +. 2.0 in
            let reads = ref 0 and torn = ref 0 in
            while Unix.gettimeofday () < deadline do
              incr reads;
              if not (Array.mem (Fs.read_all fs oid) values) then incr torn
            done;
            (!reads, !torn)))
  in
  let writes = Domain.join writer in
  check Alcotest.bool "both sides ran" true (reads > 1 && writes > 1);
  check Alcotest.int
    (Printf.sprintf "torn reads among %d (%d overwrites)" reads writes)
    0 torn

let suite =
  [
    Alcotest.test_case "readers vs writer stress" `Slow test_readers_vs_writer;
    Alcotest.test_case "pure readers take no exclusive locks" `Quick
      test_pure_readers_take_no_exclusive_locks;
    Alcotest.test_case "concurrent writers serialize" `Quick
      test_concurrent_writers_serialize;
    Alcotest.test_case "refused tag does not wedge the shard" `Quick
      test_refused_tag_does_not_wedge;
    Alcotest.test_case "read_all never returns a torn value" `Slow
      test_read_all_never_torn;
  ]
