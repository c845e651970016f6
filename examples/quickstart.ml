(* Quickstart: walk every layer of the hFAD architecture (Figure 1).

   Run with: dune exec examples/quickstart.exe *)

module Device = Hfad_blockdev.Device
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module P = Hfad_posix.Posix_fs

let say fmt = Format.printf (fmt ^^ "@.")

let () =
  (* 1. Stable storage: a simulated 64 MiB device (4 KiB blocks). *)
  let dev = Device.create ~block_size:4096 ~blocks:16384 () in
  say "created device: %d blocks x %d bytes" (Device.blocks dev)
    (Device.block_size dev);

  (* 2. Format it as an hFAD file system (OSD + index stores + API).
     [Fs.Config] gathers every knob in one typed record: cache size,
     index mode, journal size, and the write-pipeline thresholds. *)
  let config =
    Fs.Config.v ~index_mode:Fs.Eager ~journal_pages:512 ~batch_max_pages:64
      ~batch_max_age:0.005 ()
  in
  let fs = Fs.format ~config dev in

  (* 3. Create an object with content and several names at once. The
     object has no canonical location — just names. *)
  let oid =
    Fs.create_exn fs
      ~names:
        [
          (Tag.User, "margo");
          (Tag.Udef, "position-paper");
          (Tag.App, "latex");
        ]
      ~content:
        "For over forty years, we have assumed hierarchical file system \
         namespaces. The hierarchical directory model is an increasingly \
         irrelevant historical relic, and its burial is overdue."
  in
  say "created object %s" (Hfad_osd.Oid.to_string oid);

  (* 4. Naming interface: find it back by any combination of names. *)
  let show label oids =
    say "%-38s -> [%s]" label
      (String.concat "; " (List.map Hfad_osd.Oid.to_string oids))
  in
  show "lookup USER/margo" (Fs.lookup fs [ (Tag.User, "margo") ]);
  show "lookup USER/margo + APP/latex"
    (Fs.lookup fs [ (Tag.User, "margo"); (Tag.App, "latex") ]);
  show "full-text: 'hierarchical relic'"
    (List.map fst (Fs.search fs "hierarchical relic"));
  show "ID fast path" (Fs.lookup fs [ (Tag.Id, Hfad_osd.Oid.to_string oid) ]);

  (* 5. Access interface: byte-addressable objects, including the hFAD
     extensions insert and remove_bytes (two-argument truncate). *)
  let excerpt () = Fs.read fs oid ~off:0 ~len:24 in
  say "first bytes: %S" (excerpt ());
  Fs.insert_exn fs oid ~off:0 "ABSTRACT. ";
  say "after insert at 0: %S" (excerpt ());
  Fs.remove_bytes_exn fs oid ~off:0 ~len:10;
  say "after remove_bytes: %S" (excerpt ());

  (* 6. Durability is explicit. Every mutation above was acknowledged
     in memory; the asynchronous pipeline groups acknowledged mutations
     into journaled checkpoints in the background, and [barrier] is the
     fsync: it returns only when everything acknowledged before it is
     on stable storage. Fallible entry points come in result form too —
     a typed [Fs.error] instead of an exception. *)
  Fs.start_pipeline fs;
  (match Fs.append fs oid "\n(Do not lose this.)" with
  | Ok () -> say "append acknowledged (durable only after a barrier)"
  | Error e -> say "append failed: %s" (Fs.error_message e));
  (match Fs.sync fs with
  | Ok () -> say "barrier: every acknowledged mutation is now durable"
  | Error e -> say "barrier failed: %s" (Fs.error_message e));
  (match Fs.pipeline_stats fs with
  | Some s ->
      let open Hfad.Flusher in
      say "pipeline: %d acked / %d durable across %d group commit(s)"
        s.acked s.durable s.commits
  | None -> ());
  let scratch = Fs.create_exn fs ~content:"scratch" in
  Fs.delete_exn fs scratch;
  (match Fs.delete fs scratch with
  | Error (Fs.No_such_object _) ->
      say "double delete -> Error (No_such_object _), not an exception"
  | Ok () | Error _ -> say "double delete: unexpected result");

  (* 7. POSIX veneer: a path is just one more name. *)
  let p = P.mount fs in
  P.mkdir_p_exn p "/home/margo/papers";
  Fs.name_exn fs oid Tag.Posix "/home/margo/papers/hfad.txt";
  say "resolve via POSIX path -> object %s"
    (Hfad_osd.Oid.to_string (P.resolve p "/home/margo/papers/hfad.txt"));
  say "readdir /home/margo/papers -> [%s]"
    (String.concat "; " (P.readdir p "/home/margo/papers"));

  (* 8. Search refinement: the §4 'current directory as a search'. *)
  let module R = Hfad.Refine in
  let session = R.narrow (R.start fs) (Tag.User, "margo") in
  say "refined to %s: %d object(s)" (R.pwd session) (R.count session);

  (* 9. Everything persists: drain the pipeline, flush, reopen, search
     again. [stop_pipeline] commits whatever is still batched. *)
  Fs.stop_pipeline fs;
  Fs.sync_exn ~mode:`Checkpoint fs;
  let fs2 = Fs.open_existing_exn dev in
  show "after reopen, full-text still works"
    (List.map fst (Fs.search fs2 "burial overdue"));

  (* 10. The buffer cache below all those indexes is scan-resistant (2Q
     by default): first-touch pages sit in a probationary queue (a1in),
     re-referenced pages are protected (am), and evicted probationers
     leave a ghost entry that fast-tracks them back. *)
  let module Pager = Hfad_pager.Pager in
  let pgr = Hfad_osd.Osd.pager (Fs.osd fs2) in
  let s = Pager.stats pgr in
  let o = Pager.occupancy pgr in
  say "pager (%s): %d reads, %d hits, %d evictions, %d ghost hits"
    Pager.(match policy pgr with `Twoq -> "2Q" | `Lru -> "LRU")
    s.Pager.reads s.Pager.hits s.Pager.evictions s.Pager.ghost_hits;
  say "queues: a1in=%d am=%d ghosts=%d" o.Pager.a1in o.Pager.am o.Pager.a1out;
  say "quickstart done."
