(* Bechamel micro-benchmarks: steady-state cost of the hot operations of
   every layer, including the head-to-head pairs the experiment tables
   summarize (path resolution and middle-insert, hFAD vs baseline).

   Mutating benchmarks are written as do/undo pairs so state does not
   grow across iterations. *)

open Bechamel
open Toolkit
module Device = Hfad_blockdev.Device
module Buddy = Hfad_alloc.Buddy
module Pager = Hfad_pager.Pager
module Btree = Hfad_btree.Btree
module Crc32 = Hfad_util.Crc32
module Journal = Hfad_journal.Journal
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module P = Hfad_posix.Posix_fs
module H = Hfad_hierfs.Hierfs

let deep_path = "/a/b/c/d/e/f/leaf.txt"

let make_tests () =
  (* btree fixture *)
  let dev = Device.create ~block_size:4096 ~blocks:65536 () in
  let pgr = Pager.create ~cache_pages:4096 dev in
  let buddy = Buddy.create ~first_block:0 ~blocks:65536 () in
  let alloc =
    {
      Btree.alloc_page = (fun () -> Buddy.alloc buddy 1);
      Btree.free_page = (fun p -> Buddy.free buddy p);
    }
  in
  let tree = Btree.create pgr alloc ~root:(Buddy.alloc buddy 1) in
  (* checkpoint fixture: one 4 KiB page to checksum, and a 64-page batch
     for a journal region that holds it in one record *)
  let page = Bytes.init 4096 (fun i -> Char.chr ((i * 131) land 0xFF)) in
  let jdev = Device.create ~block_size:4096 ~blocks:128 () in
  let journal = Journal.format jdev ~first_block:0 ~blocks:128 in
  let batch = List.init 64 (fun i -> (1000 + i, Bytes.copy page)) in
  for i = 0 to Bench_util.scaled 9_999 ~smoke:499 do
    Btree.put tree ~key:(Printf.sprintf "key%06d" i) ~value:"value"
  done;
  (* hFAD fixture *)
  let fdev = Device.create ~block_size:4096 ~blocks:131072 () in
  let fs = Fs.format ~config:(Fs.Config.v ~cache_pages:8192 ~index_mode:Fs.Eager ()) fdev in
  (* resolution memos off: these rows measure the resolution MECHANISMS
     (one tag descent vs the component walk); R1 measures the memo. *)
  let posix = P.mount ~pathcache_entries:0 fs in
  P.mkdir_p_exn posix "/a/b/c/d/e/f";
  ignore (P.create_file_exn ~content:"deep" posix deep_path);
  let oid =
    Fs.create_exn fs
      ~names:[ (Tag.User, "margo"); (Tag.Udef, "bench") ]
      ~content:"searchable benchmark object with special zebra content"
  in
  ignore oid;
  (* A second hFAD instance with content indexing off: the byte-op
     benchmarks measure the access path, not re-indexing (C3 matches). *)
  let odev = Device.create ~block_size:4096 ~blocks:131072 () in
  let fs_off = Fs.format ~config:(Fs.Config.v ~cache_pages:8192 ~index_mode:Fs.Off ()) odev in
  let big = Fs.create_exn fs_off ~content:(String.make 1_048_576 'x') in
  (* hierarchical fixture *)
  let hdev = Device.create ~block_size:4096 ~blocks:131072 () in
  let h = H.format ~config:(H.Config.v ~cache_pages:8192 ~pathcache_entries:0 ()) hdev in
  H.mkdir_p h "/a/b/c/d/e/f";
  ignore (H.create_file ~content:"deep" h deep_path);
  ignore (H.create_file ~content:(String.make 1_048_576 'x') h "/big");
  [
    Test.make ~name:"crc32(4KiB)"
      (Staged.stage (fun () -> ignore (Crc32.bytes page ~pos:0 ~len:4096)));
    Test.make ~name:"journal.commit(64 pages)"
      (Staged.stage (fun () -> Journal.commit journal batch));
    Test.make ~name:"btree.find(10k)"
      (Staged.stage (fun () -> ignore (Btree.find tree "key004242")));
    Test.make ~name:"btree.put+remove(10k)"
      (Staged.stage (fun () ->
           Btree.put tree ~key:"zzkey" ~value:"v";
           ignore (Btree.remove tree "zzkey")));
    Test.make ~name:"buddy.alloc+free(8)"
      (Staged.stage (fun () -> Buddy.free buddy (Buddy.alloc buddy 8)));
    Test.make ~name:"osd.read(4KiB@512K)"
      (Staged.stage (fun () ->
           ignore (Fs.read fs_off big ~off:524_288 ~len:4096)));
    Test.make ~name:"fulltext.search(conj)"
      (Staged.stage (fun () -> ignore (Fs.search fs "zebra benchmark")));
    Test.make ~name:"hfad.lookup(2 tags)"
      (Staged.stage (fun () ->
           ignore (Fs.lookup fs [ (Tag.User, "margo"); (Tag.Udef, "bench") ])));
    Test.make ~name:"hfad.resolve(depth 7)"
      (Staged.stage (fun () -> ignore (P.resolve posix deep_path)));
    Test.make ~name:"hier.resolve(depth 7)"
      (Staged.stage (fun () -> ignore (H.resolve h deep_path)));
    Test.make ~name:"hfad.insert_middle(1MiB)"
      (Staged.stage (fun () ->
           Fs.insert_exn fs_off big ~off:524_288 "NEEDLE";
           Fs.remove_bytes_exn fs_off big ~off:524_288 ~len:6));
    Test.make ~name:"hier.insert_middle(1MiB)"
      (Staged.stage (fun () ->
           H.insert_middle h "/big" ~off:524_288 "NEEDLE";
           H.remove_middle h "/big" ~off:524_288 ~len:6));
  ]

let run () =
  Bench_util.heading "micro-benchmarks (bechamel, ns per run)";
  let tests = make_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg
      ~limit:(Bench_util.scaled 2000 ~smoke:50)
      ~quota:(Time.second (Bench_util.scaled 0.25 ~smoke:0.01))
      ~stabilize:false ()
  in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
        let analyzed = Analyze.all ols instance results in
        Hashtbl.fold
          (fun name ols_result acc ->
            let ns =
              match Analyze.OLS.estimates ols_result with
              | Some (estimate :: _) -> Printf.sprintf "%.0f" estimate
              | Some [] | None -> "n/a"
            in
            let name =
              match String.index_opt name '/' with
              | Some i -> String.sub name (i + 1) (String.length name - i - 1)
              | None -> name
            in
            [ name; ns ] :: acc)
          analyzed [])
      tests
    |> List.concat
    |> List.sort compare
  in
  Bench_util.table ([ [ "benchmark"; "ns/run" ] ] @ rows)
