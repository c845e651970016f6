(* Tests for the POSIX veneer: Path normalization (unit + property) and
   Posix_fs semantics. *)

module Device = Hfad_blockdev.Device
module Oid = Hfad_osd.Oid
module Meta = Hfad_osd.Meta
module Tag = Hfad_index.Tag
module Fs = Hfad.Fs
module Path = Hfad_posix.Path
module P = Hfad_posix.Posix_fs

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let mk ?(shards = 1) () =
  let dev = Device.create ~block_size:1024 ~blocks:16384 () in
  let fs =
    Fs.format
      ~config:(Fs.Config.v ~cache_pages:256 ~index_mode:Fs.Eager ~shards ())
      dev
  in
  (dev, fs, P.mount fs)

let expect_err errno f =
  match f () with
  | _ -> Alcotest.failf "expected %s" (Format.asprintf "%a" P.pp_errno errno)
  | exception P.Error (e, _) ->
      check (Alcotest.testable P.pp_errno ( = )) "errno" errno e

(* --- Path ------------------------------------------------------------------ *)

let test_path_normalize () =
  List.iter
    (fun (input, expected) ->
      check Alcotest.string input expected (Path.normalize input))
    [
      ("/", "/");
      ("", "/");
      ("//a//b", "/a/b");
      ("/a/./b", "/a/b");
      ("/a/../b", "/b");
      ("/..", "/");
      ("/a/b/../..", "/");
      ("relative/x", "/relative/x");
      ("/a/b/", "/a/b");
      ("/a/b/c/../../d", "/a/d");
    ]

let test_path_parent_basename () =
  check Alcotest.string "parent" "/a" (Path.parent "/a/b");
  check Alcotest.string "parent of top" "/" (Path.parent "/a");
  check Alcotest.string "parent of root" "/" (Path.parent "/");
  check Alcotest.string "basename" "b" (Path.basename "/a/b");
  check Alcotest.string "basename of root" "" (Path.basename "/")

let test_path_join_components_depth () =
  check Alcotest.string "join" "/a/b" (Path.join "/a" "b");
  check Alcotest.string "join dotdot" "/c" (Path.join "/a" "../c");
  check (Alcotest.list Alcotest.string) "components" [ "a"; "b" ]
    (Path.components "/a/b");
  check Alcotest.int "depth" 2 (Path.depth "/a/b");
  check Alcotest.int "depth root" 0 (Path.depth "/")

let test_path_ancestor_replace () =
  check Alcotest.bool "ancestor" true (Path.is_ancestor ~ancestor:"/a" "/a/b/c");
  check Alcotest.bool "not self" false (Path.is_ancestor ~ancestor:"/a" "/a");
  check Alcotest.bool "sibling prefix" false
    (Path.is_ancestor ~ancestor:"/ab" "/abc");
  check Alcotest.bool "root" true (Path.is_ancestor ~ancestor:"/" "/x");
  check Alcotest.string "replace" "/new/c"
    (Path.replace_prefix ~old_prefix:"/a/b" ~new_prefix:"/new" "/a/b/c");
  check Alcotest.string "replace self" "/new"
    (Path.replace_prefix ~old_prefix:"/a" ~new_prefix:"/new" "/a")

let prop_normalize_idempotent =
  qtest
    (QCheck.Test.make ~name:"normalize is idempotent" ~count:500
       QCheck.(string_of_size Gen.(0 -- 40))
       (fun s ->
         let once = Path.normalize s in
         Path.normalize once = once))

let prop_parent_is_ancestor =
  qtest
    (QCheck.Test.make ~name:"parent is ancestor (or root)" ~count:300
       QCheck.(list_of_size Gen.(1 -- 5) (string_of_size Gen.(1 -- 4)))
       (fun parts ->
         let parts = List.filter (fun p -> p <> "." && p <> "..") parts in
         QCheck.assume (parts <> []);
         let p = Path.normalize ("/" ^ String.concat "/" parts) in
         QCheck.assume (p <> "/");
         Path.is_ancestor ~ancestor:(Path.parent p) p))

(* --- Posix_fs: namespace ------------------------------------------------------ *)

let test_mount_creates_root () =
  let _, _, p = mk () in
  check Alcotest.bool "root exists" true (P.exists p "/");
  check Alcotest.bool "root is dir" true (P.is_directory p "/");
  check (Alcotest.list Alcotest.string) "empty root" [] (P.readdir p "/");
  P.verify p

let test_mount_idempotent () =
  let _, fs, _p = mk () in
  let p2 = P.mount fs in
  check Alcotest.bool "remount fine" true (P.exists p2 "/")

let test_mkdir_and_files () =
  let _, _, p = mk () in
  P.mkdir_exn p "/home";
  P.mkdir_exn p "/home/margo";
  let oid = P.create_file_exn ~content:"my thesis" p "/home/margo/thesis.txt" in
  check Alcotest.string "read back" "my thesis" (P.read_file p "/home/margo/thesis.txt");
  check Alcotest.bool "resolve" true (Oid.equal oid (P.resolve p "/home/margo/thesis.txt"));
  check (Alcotest.list Alcotest.string) "listing" [ "margo" ] (P.readdir p "/home");
  check (Alcotest.list Alcotest.string) "nested listing" [ "thesis.txt" ]
    (P.readdir p "/home/margo");
  P.verify p

let test_mkdir_errors () =
  let _, _, p = mk () in
  P.mkdir_exn p "/a";
  expect_err P.EEXIST (fun () -> P.mkdir_exn p "/a");
  expect_err P.ENOENT (fun () -> P.mkdir_exn p "/missing/child");
  P.create_file_exn p "/file" |> ignore;
  expect_err P.ENOTDIR (fun () -> P.mkdir_exn p "/file/sub");
  expect_err P.EEXIST (fun () -> P.mkdir_exn p "/")

let test_mkdir_p () =
  let _, _, p = mk () in
  P.mkdir_p_exn p "/deep/nested/tree/of/dirs";
  check Alcotest.bool "deep exists" true (P.is_directory p "/deep/nested/tree/of/dirs");
  P.mkdir_p_exn p "/deep/nested";  (* no error *)
  P.verify p

let test_readdir_one_level_only () =
  let _, _, p = mk () in
  P.mkdir_p_exn p "/a/b";
  P.create_file_exn p "/a/x" |> ignore;
  P.create_file_exn p "/a/b/y" |> ignore;
  check (Alcotest.list Alcotest.string) "only direct children" [ "b"; "x" ]
    (P.readdir p "/a");
  expect_err P.ENOTDIR (fun () -> P.readdir p "/a/x");
  expect_err P.ENOENT (fun () -> P.readdir p "/zzz")

let test_path_normalization_at_api () =
  let _, _, p = mk () in
  P.mkdir_exn p "//docs/";
  P.create_file_exn ~content:"x" p "/docs/../docs/./report.txt" |> ignore;
  check Alcotest.string "normalized access" "x" (P.read_file p "/docs/report.txt");
  check Alcotest.bool "relative-style too" true (P.exists p "docs/report.txt")

let test_unlink_and_link_count () =
  let _, fs, p = mk () in
  let oid = P.create_file_exn ~content:"shared" p "/original" in
  P.link_exn p "/original" "/alias";
  check Alcotest.int "nlink 2" 2 (P.nlink p "/original");
  check Alcotest.bool "same object" true (Oid.equal oid (P.resolve p "/alias"));
  P.unlink_exn p "/original";
  check Alcotest.bool "object alive via alias" true (Fs.exists fs oid);
  check Alcotest.string "readable via alias" "shared" (P.read_file p "/alias");
  P.unlink_exn p "/alias";
  check Alcotest.bool "object deleted with last name" false (Fs.exists fs oid);
  expect_err P.ENOENT (fun () -> P.resolve p "/alias")

let test_link_errors () =
  let _, _, p = mk () in
  P.mkdir_exn p "/dir";
  P.create_file_exn p "/f" |> ignore;
  expect_err P.EISDIR (fun () -> P.link_exn p "/dir" "/dirlink");
  expect_err P.EEXIST (fun () -> P.link_exn p "/f" "/dir");
  expect_err P.ENOENT (fun () -> P.link_exn p "/missing" "/x")

let test_unlink_errors () =
  let _, _, p = mk () in
  P.mkdir_exn p "/d";
  expect_err P.EISDIR (fun () -> P.unlink_exn p "/d");
  expect_err P.ENOENT (fun () -> P.unlink_exn p "/none")

let test_rmdir () =
  let _, _, p = mk () in
  P.mkdir_p_exn p "/d/sub";
  expect_err P.ENOTEMPTY (fun () -> P.rmdir_exn p "/d");
  P.rmdir_exn p "/d/sub";
  P.rmdir_exn p "/d";
  check Alcotest.bool "gone" false (P.exists p "/d");
  expect_err P.EINVAL (fun () -> P.rmdir_exn p "/");
  P.verify p

let test_rename_file () =
  let _, _, p = mk () in
  P.mkdir_exn p "/a";
  P.mkdir_exn p "/b";
  let oid = P.create_file_exn ~content:"contents" p "/a/f" in
  P.rename_exn p "/a/f" "/b/g";
  check Alcotest.bool "old gone" false (P.exists p "/a/f");
  check Alcotest.bool "same oid" true (Oid.equal oid (P.resolve p "/b/g"));
  check Alcotest.string "content kept" "contents" (P.read_file p "/b/g");
  P.verify p

let test_rename_directory_subtree () =
  let _, _, p = mk () in
  P.mkdir_p_exn p "/proj/src/lib";
  P.create_file_exn ~content:"main" p "/proj/src/main.ml" |> ignore;
  P.create_file_exn ~content:"util" p "/proj/src/lib/util.ml" |> ignore;
  P.rename_exn p "/proj/src" "/proj/source";
  check Alcotest.bool "old tree gone" false (P.exists p "/proj/src");
  check Alcotest.string "file moved" "main" (P.read_file p "/proj/source/main.ml");
  check Alcotest.string "nested file moved" "util"
    (P.read_file p "/proj/source/lib/util.ml");
  check (Alcotest.list Alcotest.string) "listing follows" [ "lib"; "main.ml" ]
    (P.readdir p "/proj/source");
  P.verify p

let test_rename_errors () =
  let _, _, p = mk () in
  P.mkdir_exn p "/d";
  P.create_file_exn p "/f" |> ignore;
  expect_err P.EEXIST (fun () -> P.rename_exn p "/f" "/d");
  expect_err P.EINVAL (fun () -> P.rename_exn p "/d" "/d/inside");
  expect_err P.ENOENT (fun () -> P.rename_exn p "/missing" "/x");
  expect_err P.EINVAL (fun () -> P.rename_exn p "/" "/elsewhere");
  (* renaming to itself is a no-op *)
  P.rename_exn p "/f" "/f"

let test_symlinks shards () =
  let _, fs, p = mk ~shards () in
  P.mkdir_exn p "/real";
  P.create_file_exn ~content:"target data" p "/real/data" |> ignore;
  P.symlink_exn p ~target:"/real/data" "/abs-link";
  P.symlink_exn p ~target:"data" "/real/rel-link";
  check Alcotest.string "absolute link" "target data" (P.read_file p "/abs-link");
  check Alcotest.string "relative link" "target data" (P.read_file p "/real/rel-link");
  check Alcotest.string "readlink" "/real/data" (P.readlink p "/abs-link");
  expect_err P.EINVAL (fun () -> P.readlink p "/real/data");
  (* no-follow resolution sees the link object itself *)
  let link_oid = P.resolve ~follow:false p "/abs-link" in
  check Alcotest.bool "link kind" true
    ((P.stat p "/abs-link").Meta.kind = Meta.Regular);
  check Alcotest.bool "link object is symlink" true
    ((Fs.metadata (P.fs p) link_oid).Meta.kind = Meta.Symlink);
  check Alcotest.int "link targets are not content" 0
    (List.length (Fs.search fs "real"));
  (* Every path-cache hit names a live object, on whichever shard. *)
  for _ = 1 to 3 do
    ignore (P.read_file p "/abs-link");
    ignore (P.read_file p "/real/rel-link")
  done;
  check Alcotest.int "no live hit judged dead" 0
    (Option.get (P.pathcache_stats p)).Hfad_pathcache.Pathcache.invalidations

let test_symlink_loop_detected () =
  let _, _, p = mk () in
  P.symlink_exn p ~target:"/b" "/a";
  P.symlink_exn p ~target:"/a" "/b";
  expect_err P.ELOOP (fun () -> P.read_file p "/a")

let test_fd_io () =
  let _, _, p = mk () in
  let fd = P.openf ~create:true p "/log.txt" in
  P.write_fd_exn p fd "hello ";
  P.write_fd_exn p fd "world";
  check Alcotest.int "tell" 11 (P.tell p fd);
  P.seek p fd 0;
  check Alcotest.string "read from start" "hello" (P.read_fd p fd 5);
  check Alcotest.string "cursor advanced" " world" (P.read_fd p fd 100);
  check Alcotest.string "eof" "" (P.read_fd p fd 10);
  P.close p fd;
  expect_err P.EBADF (fun () -> P.read_fd p fd 1);
  expect_err P.EBADF (fun () -> P.close p fd)

let test_openf_errors () =
  let _, _, p = mk () in
  P.mkdir_exn p "/d";
  expect_err P.ENOENT (fun () -> P.openf p "/nope");
  expect_err P.EISDIR (fun () -> P.openf p "/d");
  let fd = P.openf ~create:true p "/fresh" in
  P.close p fd;
  check Alcotest.bool "created" true (P.exists p "/fresh")

let test_write_file_truncates () =
  let _, _, p = mk () in
  P.write_file_exn p "/f" "a very long first version";
  P.write_file_exn p "/f" "short";
  check Alcotest.string "replaced" "short" (P.read_file p "/f")

(* A reader on another domain sees the old bytes or the new, never the
   truncated file between them. *)
let test_write_file_atomic_for_readers () =
  let _, _, p = mk () in
  let versions = [| String.make 100 'a'; String.make 100 'b' |] in
  P.write_file_exn p "/f" versions.(0);
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let reads = ref 0 and wrong = ref 0 in
        while not (Atomic.get stop) do
          if String.length (P.read_file p "/f") <> 100 then incr wrong;
          incr reads
        done;
        (!reads, !wrong))
  in
  for i = 1 to 2_000 do
    P.write_file_exn p "/f" versions.(i land 1)
  done;
  Atomic.set stop true;
  let reads, wrong = Domain.join reader in
  check Alcotest.bool "the reader ran" true (reads > 0);
  check Alcotest.int "reads of another length" 0 wrong

(* An object is created with its path in one mutation, so a path the
   index refuses leaves nothing behind. *)
let test_refused_path_leaks_nothing () =
  let _, fs, p = mk () in
  let path = "/" ^ String.make 5_000 'x' in
  let before = Fs.object_count fs in
  List.iter
    (fun (what, f) ->
      match f () with
      | Error (P.Errno (P.EINVAL, _)) ->
          check Alcotest.int what before (Fs.object_count fs)
      | Ok () -> Alcotest.failf "%s: over-long path accepted" what
      | Error e -> Alcotest.failf "%s: %a" what P.pp_error e)
    [
      ("create_file", fun () -> Result.map ignore (P.create_file p path));
      ("mkdir", fun () -> P.mkdir p path);
      ("symlink", fun () -> P.symlink p ~target:"/" path);
      ("write_file", fun () -> P.write_file p path "data");
    ];
  P.verify p

let test_walk () =
  let _, _, p = mk () in
  P.mkdir_p_exn p "/t/a";
  P.create_file_exn p "/t/x" |> ignore;
  P.create_file_exn p "/t/a/y" |> ignore;
  let paths = List.map fst (P.walk p "/t") in
  check (Alcotest.list Alcotest.string) "walk"
    [ "/t"; "/t/a"; "/t/a/y"; "/t/x" ] paths

let test_posix_and_native_naming_coexist () =
  (* The headline architectural claim: a POSIX path is just one name.
     The same object is reachable by path, by tag, and by content. *)
  let _, fs, p = mk () in
  P.mkdir_p_exn p "/home/margo/photos";
  let oid =
    P.create_file_exn ~content:"sunset over diamond head crater" p
      "/home/margo/photos/img_0042.jpg"
  in
  Fs.name_exn fs oid Tag.User "margo";
  Fs.name_exn fs oid Tag.Udef "hawaii";
  let by_path = P.resolve p "/home/margo/photos/img_0042.jpg" in
  let by_tags = Fs.lookup fs [ (Tag.User, "margo"); (Tag.Udef, "hawaii") ] in
  let by_content = List.map fst (Fs.search fs "diamond crater") in
  check Alcotest.bool "path = tag" true (by_tags = [ by_path ]);
  check Alcotest.bool "path = content" true (by_content = [ by_path ]);
  check Alcotest.bool "oid agrees" true (Oid.equal oid by_path);
  (* removing the POSIX name leaves the object reachable by tags: naming
     is separated from access (§2 requirements). *)
  P.unlink_exn p "/home/margo/photos/img_0042.jpg";
  check Alcotest.bool "tags survive unlink... object still alive?" true
    (Fs.lookup fs [ (Tag.Udef, "hawaii") ] = []);
  (* NOTE: unlink of the last POSIX name deletes the object (POSIX
     link-count semantics), which also drops its tags — checked above. *)
  P.verify p

let test_resolution_is_single_descent () =
  (* §2.3: hFAD path resolution must not walk components. Deep and
     shallow paths cost the same number of index descents. *)
  let _, _, p = mk () in
  P.mkdir_p_exn p "/a/b/c/d/e/f/g/h";
  P.create_file_exn ~content:"deep" p "/a/b/c/d/e/f/g/h/deep.txt" |> ignore;
  P.create_file_exn ~content:"shallow" p "/shallow.txt" |> ignore;
  let descents_for path =
    let reg = Hfad_metrics.Registry.global in
    let snap = Hfad_metrics.Registry.snapshot reg in
    ignore (P.resolve p path);
    match List.assoc_opt "btree.descents" (Hfad_metrics.Registry.diff reg snap) with
    | Some n -> n
    | None -> 0
  in
  let deep = descents_for "/a/b/c/d/e/f/g/h/deep.txt" in
  let shallow = descents_for "/shallow.txt" in
  check Alcotest.int "depth-independent resolution" shallow deep

(* --- typed result API ------------------------------------------------------ *)

let test_typed_results () =
  let _, _, p = mk () in
  (match P.mkdir p "/d" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mkdir: %a" P.pp_error e);
  (* The same refusal the _exn variant raises, as a value. *)
  (match P.mkdir p "/d" with
  | Error (P.Errno (P.EEXIST, _)) -> ()
  | Ok () -> Alcotest.fail "duplicate mkdir accepted"
  | Error e -> Alcotest.failf "wrong error: %a" P.pp_error e);
  (match P.write_file p "/d/f" "payload" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write_file: %a" P.pp_error e);
  (match P.rmdir p "/d" with
  | Error (P.Errno (P.ENOTEMPTY, _)) -> ()
  | _ -> Alcotest.fail "rmdir of non-empty directory accepted");
  (* One errno vocabulary across the stacks: the veneer's constructors
     ARE Hfad_util.Errno's (and Hierfs re-exports the same type). *)
  check Alcotest.string "shared errno" "ENOTEMPTY"
    (Hfad_util.Errno.to_string P.ENOTEMPTY)

let suite =
  [
    Alcotest.test_case "path normalize" `Quick test_path_normalize;
    Alcotest.test_case "path parent/basename" `Quick test_path_parent_basename;
    Alcotest.test_case "path join/components/depth" `Quick
      test_path_join_components_depth;
    Alcotest.test_case "path ancestor/replace" `Quick test_path_ancestor_replace;
    prop_normalize_idempotent;
    prop_parent_is_ancestor;
    Alcotest.test_case "mount creates root" `Quick test_mount_creates_root;
    Alcotest.test_case "mount idempotent" `Quick test_mount_idempotent;
    Alcotest.test_case "mkdir + files" `Quick test_mkdir_and_files;
    Alcotest.test_case "mkdir errors" `Quick test_mkdir_errors;
    Alcotest.test_case "mkdir_p" `Quick test_mkdir_p;
    Alcotest.test_case "readdir one level" `Quick test_readdir_one_level_only;
    Alcotest.test_case "normalization at API" `Quick test_path_normalization_at_api;
    Alcotest.test_case "unlink + link count" `Quick test_unlink_and_link_count;
    Alcotest.test_case "link errors" `Quick test_link_errors;
    Alcotest.test_case "unlink errors" `Quick test_unlink_errors;
    Alcotest.test_case "rmdir" `Quick test_rmdir;
    Alcotest.test_case "typed result API" `Quick test_typed_results;
    Alcotest.test_case "rename file" `Quick test_rename_file;
    Alcotest.test_case "rename directory subtree" `Quick
      test_rename_directory_subtree;
    Alcotest.test_case "rename errors" `Quick test_rename_errors;
    Alcotest.test_case "symlinks" `Quick (test_symlinks 1);
    Alcotest.test_case "symlinks on 4 shards" `Quick (test_symlinks 4);
    Alcotest.test_case "symlink loop" `Quick test_symlink_loop_detected;
    Alcotest.test_case "fd I/O" `Quick test_fd_io;
    Alcotest.test_case "openf errors" `Quick test_openf_errors;
    Alcotest.test_case "write_file truncates" `Quick test_write_file_truncates;
    Alcotest.test_case "write_file atomic for readers" `Quick
      test_write_file_atomic_for_readers;
    Alcotest.test_case "refused path leaks nothing" `Quick
      test_refused_path_leaks_nothing;
    Alcotest.test_case "walk" `Quick test_walk;
    Alcotest.test_case "POSIX and native naming coexist" `Quick
      test_posix_and_native_naming_coexist;
    Alcotest.test_case "resolution is depth-independent" `Quick
      test_resolution_is_single_descent;
  ]
