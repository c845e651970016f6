(* Email: the paper's §2.1 irrelevance argument.

   "We encourage the skeptical reader to ask non-technical friends where
   their email is physically located. Can even you, the technically
   savvy user, produce a pathname to your personal email?"

   Loads a mail archive into BOTH systems and answers the same question
   two ways: hFAD tag/content lookup vs. remembering the pathname (or
   scanning for it) in the hierarchical baseline.

   Run with: dune exec examples/email_search.exe *)

module Device = Hfad_blockdev.Device
module Rng = Hfad_util.Rng
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module P = Hfad_posix.Posix_fs
module H = Hfad_hierfs.Hierfs
module Search = Hfad_hierfs.Desktop_search
module Registry = Hfad_metrics.Registry
module Corpus = Hfad_workload.Corpus
module Load = Hfad_workload.Load

let say fmt = Format.printf (fmt ^^ "@.")

let () =
  let emails = Corpus.emails (Rng.create 42L) ~count:1000 in

  (* hFAD side. *)
  let dev = Device.create ~block_size:4096 ~blocks:65536 () in
  let fs = Fs.format ~config:(Fs.Config.v ~index_mode:Fs.Lazy ()) dev in
  let p = P.mount fs in
  let _ = Load.emails_into_hfad p emails in
  say "loaded %d messages into hFAD (lazy indexing, backlog = %d)"
    (List.length emails) (Fs.index_backlog fs);
  Fs.drain_index fs;
  say "index drained; backlog = %d" (Fs.index_backlog fs);

  (* Hierarchical side, with its external desktop-search index. *)
  let dev2 = Device.create ~block_size:4096 ~blocks:65536 () in
  let h = H.format dev2 in
  Load.emails_into_hierfs h emails;
  let ds = Search.create h in
  ignore (Search.index_tree ds "/");

  say "";
  say "\"where is the mail about the budget?\"";
  let snap = Registry.snapshot Registry.global in
  let hfad_hits = Fs.search fs "budget" in
  let hfad_cost = Registry.diff Registry.global snap in
  say "  hFAD: %d hits straight to object IDs" (List.length hfad_hits);
  let descents =
    Option.value ~default:0 (List.assoc_opt "btree.descents" hfad_cost)
  in
  say "        (%d index descents end to end)" descents;

  let snap = Registry.snapshot Registry.global in
  let hier_hits = Search.search_and_read ds "budget" ~bytes_per_hit:32 in
  let hier_cost = Registry.diff Registry.global snap in
  say "  hierarchical stack: %d hits, but each is a PATHNAME that must be walked:"
    (List.length hier_hits);
  List.iter
    (fun (name, value) ->
      if name = "btree.descents" || name = "hierfs.components_walked"
         || name = "hierfs.inode_fetches" then
        say "        %-28s %d" name value)
    hier_cost;

  say "";
  say "\"show me margo's mail from 2008\" (attributes, no paths):";
  let hits =
    Fs.lookup fs [ (Tag.User, "margo"); (Tag.Udef, "2008") ]
  in
  say "  hFAD: %d messages via USER/margo + UDEF/2008" (List.length hits);
  say "  hierarchical: that question IS a pathname (/home/margo/mail/2008)";
  say "  ...unless the mail was filed anywhere else, in which case: scan.";

  (* Demonstrate the scan cost. *)
  let t0 = Unix.gettimeofday () in
  let all = H.walk_files h "/" in
  let matching =
    List.filter
      (fun path ->
        Hfad_util.Strx.starts_with ~prefix:"/home/margo/mail/2008/" path)
      all
  in
  let t1 = Unix.gettimeofday () in
  say "  full tree walk found %d candidates among %d files (%.1f ms)"
    (List.length matching) (List.length all)
    (1000. *. (t1 -. t0))
