(* hfadctl — command-line front end for hFAD images.

   A persistent hFAD file system lives in a sparse image file; every
   subcommand loads the image, performs its operation through the native
   or POSIX API, and (for mutations) writes the image back.

     hfadctl mkfs disk.img
     hfadctl put disk.img /notes/todo.txt "buy milk"
     hfadctl tag disk.img /notes/todo.txt UDEF errands
     hfadctl search disk.img milk
     hfadctl find disk.img UDEF/errands
     hfadctl ls disk.img /notes
     hfadctl cat disk.img /notes/todo.txt *)

module Device = Hfad_blockdev.Device
module Fs = Hfad.Fs
module Tag = Hfad_index.Tag
module Oid = Hfad_osd.Oid
module Meta = Hfad_osd.Meta
module P = Hfad_posix.Posix_fs
module Prometheus = Hfad_metrics.Prometheus
module Registry = Hfad_metrics.Registry
module Counter = Hfad_metrics.Counter
module Trace = Hfad_trace.Trace
module Server = Hfad_server.Server
module Client = Hfad_server.Client
module Wire = Hfad_server.Wire
open Cmdliner

let say fmt = Format.printf (fmt ^^ "@.")

(* --- plumbing ------------------------------------------------------------ *)

let with_image ?(write = false) image f =
  let dev = Device.load image in
  let fs = Fs.open_existing_exn ~config:(Fs.Config.v ~index_mode:Fs.Eager ()) dev in
  let posix = P.mount fs in
  let result = f fs posix in
  if write then begin
    Fs.sync_exn ~mode:`Checkpoint fs;
    Device.save dev image
  end;
  P.unmount posix;
  result

let with_client host port f =
  let c = Client.connect ~host ~port () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let remote_ok = function
  | Ok v -> v
  | Error e -> failwith (Format.asprintf "%a" Client.pp_error e)

let handle_errors f =
  try
    f ();
    0
  with
  | P.Error (errno, ctx) ->
      Format.eprintf "error: %a: %s@." P.pp_errno errno ctx;
      1
  | Device.Io_error msg | Failure msg ->
      Format.eprintf "error: %s@." msg;
      1
  | Invalid_argument msg ->
      Format.eprintf "invalid argument: %s@." msg;
      1

(* --- arguments ------------------------------------------------------------ *)

let image_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE" ~doc:"Image file.")

let path_arg n =
  Arg.(required & pos n (some string) None & info [] ~docv:"PATH" ~doc:"POSIX path.")

let pair_conv =
  let parse s =
    match Tag.pair_of_string s with
    | pair -> Ok pair
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt pair -> Tag.pp_pair fmt pair)

(* --- commands ---------------------------------------------------------------- *)

let mkfs image blocks block_size shards =
  handle_errors (fun () ->
      let dev = Device.create ~block_size ~blocks () in
      let fs = Fs.format ~config:{ Fs.Config.default with Fs.Config.shards } dev in
      let _ = P.mount fs in
      Fs.sync_exn ~mode:`Checkpoint fs;
      Device.save dev image;
      say "formatted %s: %d blocks x %d bytes%s" image blocks block_size
        (if shards > 1 then Printf.sprintf ", %d shards" shards else ""))

let mkfs_cmd =
  let blocks =
    Arg.(value & opt int 65536 & info [ "blocks" ] ~doc:"Device size in blocks.")
  in
  let block_size =
    Arg.(value & opt int 4096 & info [ "block-size" ] ~doc:"Block size in bytes.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ]
             ~doc:
               "Partition the image into N independent OSD shards behind \
                the OID router (1 = the classic unsharded layout).")
  in
  Cmd.v (Cmd.info "mkfs" ~doc:"Create and format a new image.")
    Term.(const mkfs $ image_arg $ blocks $ block_size $ shards)

let put image path data =
  handle_errors (fun () ->
      with_image ~write:true image (fun _fs posix ->
          P.mkdir_p_exn posix (Hfad_posix.Path.parent path);
          P.write_file_exn posix path data;
          say "wrote %d bytes to %s" (String.length data) path))

let put_cmd =
  let data =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"DATA" ~doc:"Content.")
  in
  Cmd.v (Cmd.info "put" ~doc:"Write a file (create or replace).")
    Term.(const put $ image_arg $ path_arg 1 $ data)

let cat image path =
  handle_errors (fun () ->
      with_image image (fun _fs posix -> print_string (P.read_file posix path)))

let cat_cmd =
  Cmd.v (Cmd.info "cat" ~doc:"Print a file's content.")
    Term.(const cat $ image_arg $ path_arg 1)

let ls image path =
  handle_errors (fun () ->
      with_image image (fun _fs posix ->
          List.iter (fun name -> say "%s" name) (P.readdir posix path)))

let ls_cmd =
  Cmd.v (Cmd.info "ls" ~doc:"List a directory.")
    Term.(const ls $ image_arg $ path_arg 1)

let mkdir image path =
  handle_errors (fun () ->
      with_image ~write:true image (fun _fs posix -> P.mkdir_p_exn posix path))

let mkdir_cmd =
  Cmd.v (Cmd.info "mkdir" ~doc:"Create a directory (with parents).")
    Term.(const mkdir $ image_arg $ path_arg 1)

let rm image path =
  handle_errors (fun () ->
      with_image ~write:true image (fun _fs posix ->
          if P.is_directory posix path then P.rmdir_exn posix path
          else P.unlink_exn posix path))

let rm_cmd =
  Cmd.v (Cmd.info "rm" ~doc:"Remove a file or empty directory.")
    Term.(const rm $ image_arg $ path_arg 1)

let tag image path pair =
  handle_errors (fun () ->
      with_image ~write:true image (fun fs posix ->
          let tag, value = pair in
          let oid = P.resolve posix path in
          Fs.name_exn fs oid tag value;
          say "tagged %s with %s" path (Format.asprintf "%a" Tag.pp_pair pair)))

let pair_pos =
  Arg.(required & pos 2 (some pair_conv) None & info [] ~docv:"TAG/VALUE"
         ~doc:"Tag/value pair, e.g. UDEF/vacation.")

let tag_cmd =
  Cmd.v (Cmd.info "tag" ~doc:"Attach a tag/value name to a file.")
    Term.(const tag $ image_arg $ path_arg 1 $ pair_pos)

let untag image path pair =
  handle_errors (fun () ->
      with_image ~write:true image (fun fs posix ->
          let tag, value = pair in
          let oid = P.resolve posix path in
          if Fs.unname_exn fs oid tag value then say "untagged"
          else say "no such tag on %s" path))

let untag_cmd =
  Cmd.v (Cmd.info "untag" ~doc:"Remove a tag/value name from a file.")
    Term.(const untag $ image_arg $ path_arg 1 $ pair_pos)

let tags image path =
  handle_errors (fun () ->
      with_image image (fun fs posix ->
          let oid = P.resolve posix path in
          say "%s -> object %s" path (Oid.to_string oid);
          List.iter
            (fun pair -> say "  %s" (Format.asprintf "%a" Tag.pp_pair pair))
            (Fs.names_of fs oid)))

let tags_cmd =
  Cmd.v (Cmd.info "tags" ~doc:"List every name a file carries.")
    Term.(const tags $ image_arg $ path_arg 1)

let search image terms =
  handle_errors (fun () ->
      with_image image (fun fs _posix ->
          let hits = Fs.search fs (String.concat " " terms) in
          say "%d hit(s)" (List.length hits);
          List.iter
            (fun (oid, score) ->
              let posix_names =
                List.filter_map
                  (fun (tag, v) -> if Tag.equal tag Tag.Posix then Some v else None)
                  (Fs.names_of fs oid)
              in
              say "  [%.2f] %s %s" score (Oid.to_string oid)
                (String.concat ", " posix_names))
            hits))

let search_cmd =
  let terms =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"TERM" ~doc:"Search terms.")
  in
  Cmd.v (Cmd.info "search" ~doc:"Full-text search over file content.")
    Term.(const search $ image_arg $ terms)

let find image pairs =
  handle_errors (fun () ->
      with_image image (fun fs _posix ->
          let hits = Fs.lookup fs pairs in
          say "%d object(s)" (List.length hits);
          List.iter (fun oid -> say "  %s" (Oid.to_string oid)) hits))

let find_cmd =
  let pairs =
    Arg.(non_empty & pos_right 0 pair_conv [] & info [] ~docv:"TAG/VALUE"
           ~doc:"Tag/value pairs, conjoined.")
  in
  Cmd.v
    (Cmd.info "find" ~doc:"Naming lookup: conjunction of TAG/VALUE pairs.")
    Term.(const find $ image_arg $ pairs)

let mv image old_path new_path =
  handle_errors (fun () ->
      with_image ~write:true image (fun _fs posix ->
          P.rename_exn posix old_path new_path))

let mv_cmd =
  Cmd.v (Cmd.info "mv" ~doc:"Rename a file or directory subtree.")
    Term.(const mv $ image_arg $ path_arg 1 $ path_arg 2)

let ln image existing fresh =
  handle_errors (fun () ->
      with_image ~write:true image (fun _fs posix -> P.link_exn posix existing fresh))

let ln_cmd =
  Cmd.v (Cmd.info "ln" ~doc:"Hard link: one more POSIX name for a file.")
    Term.(const ln $ image_arg $ path_arg 1 $ path_arg 2)

let insert_bytes image path off data =
  handle_errors (fun () ->
      with_image ~write:true image (fun fs posix ->
          let oid = P.resolve posix path in
          Fs.insert_exn fs oid ~off data;
          say "inserted %d bytes at offset %d" (String.length data) off))

let insert_cmd =
  let off =
    Arg.(required & pos 2 (some int) None & info [] ~docv:"OFFSET"
           ~doc:"Byte offset.")
  in
  let data =
    Arg.(required & pos 3 (some string) None & info [] ~docv:"DATA" ~doc:"Bytes.")
  in
  Cmd.v
    (Cmd.info "insert"
       ~doc:"hFAD byte-granular insert into the middle of a file.")
    Term.(const insert_bytes $ image_arg $ path_arg 1 $ off $ data)

let compact image path =
  handle_errors (fun () ->
      with_image ~write:true image (fun fs posix ->
          (* Routed through Fs so the object's owner shard does the
             work, whatever the image's layout. *)
          let oid = P.resolve posix path in
          let before = Fs.extent_count fs oid in
          Fs.compact_exn fs oid;
          say "compacted: %d -> %d extents" before (Fs.extent_count fs oid)))

let compact_cmd =
  Cmd.v (Cmd.info "compact" ~doc:"Defragment a file's extents.")
    Term.(const compact $ image_arg $ path_arg 1)

let boolean_query image text expl =
  handle_errors (fun () ->
      with_image image (fun fs _posix ->
          let q = Hfad_index.Query.of_string text in
          (* One plan per shard the query visits; an unsharded image has
             one plan and no heading. *)
          if expl then
            List.iter
              (fun (i, plan) ->
                if Fs.shard_count fs > 1 then say "shard %d:" i;
                print_string plan)
              (Fs.explain fs q);
          let hits = Fs.query fs q in
          say "%d object(s)" (List.length hits);
          List.iter (fun oid -> say "  %s" (Oid.to_string oid)) hits))

let query_cmd =
  let text =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY"
           ~doc:"Boolean query, e.g. 'USER/margo & (UDEF/a | UDEF/b) & !APP/x'.")
  in
  let expl =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the evaluation plan.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Boolean naming query with and/or/not.")
    Term.(const boolean_query $ image_arg $ text $ expl)

let stat image path =
  handle_errors (fun () ->
      with_image image (fun _fs posix ->
          let meta = P.stat posix path in
          say "%s: %a" path Meta.pp meta;
          say "links: %d" (P.nlink posix path)))

let stat_cmd =
  Cmd.v (Cmd.info "stat" ~doc:"Show a file's metadata.")
    Term.(const stat $ image_arg $ path_arg 1)

let show_info image =
  handle_errors (fun () ->
      with_image image (fun fs posix ->
          let dev = Fs.device fs in
          say "device : %d blocks x %d bytes (%d KiB)" (Device.blocks dev)
            (Device.block_size dev)
            (Device.size_bytes dev / 1024);
          let n = Fs.shard_count fs in
          if n > 1 then say "shards : %d (oid-hash router)" n;
          say "objects: %d" (Fs.object_count fs);
          (* Allocation is per shard: each OSD owns its device region. *)
          for s = 0 to n - 1 do
            let osd = Fs.osd_of_shard fs s in
            let buddy = Hfad_osd.Osd.allocator osd in
            let stats = Hfad_alloc.Buddy.stats buddy in
            let label =
              if n > 1 then Printf.sprintf "shard%d " s else "space  "
            in
            say "%s: %d objects, %d / %d blocks free (fragmentation %.2f)"
              label
              (Hfad_osd.Osd.object_count osd)
              stats.Hfad_alloc.Buddy.free_blocks
              stats.Hfad_alloc.Buddy.total_blocks
              (Hfad_alloc.Buddy.fragmentation buddy)
          done;
          (* Span loss and ack lag are silent failures unless surfaced:
             a non-zero dropped count means any trace dump is missing
             spans, and a growing queue age means acks are outrunning
             their commits. *)
          say "trace  : %d dropped span(s), ring %d/%d" (Trace.dropped ())
            (Trace.ring_occupancy ()) (Trace.ring_capacity ());
          say "flusher: queue age %d us"
            (Counter.get (Registry.counter Registry.global "flusher.queue_age_us"));
          (* Resolution cache: resolve the whole namespace twice so the
             occupancy and hit-rate lines mean something in a fresh
             process (first pass fills, second pass hits). *)
          match P.pathcache_stats posix with
          | None -> ()
          | Some _ ->
              let paths = List.map fst (P.walk posix "/") in
              for _ = 1 to 2 do
                List.iter (fun p -> ignore (P.exists posix p)) paths
              done;
              (match P.pathcache_stats posix with
              | Some s ->
                  let module PC = Hfad_pathcache.Pathcache in
                  let looked = s.PC.hits + s.PC.misses in
                  say
                    "pathcache: %d entries, %d hits / %d lookups (hit rate \
                     %.0f%%)"
                    s.PC.entries s.PC.hits looked
                    (if looked = 0 then 100.0
                     else 100.0 *. float_of_int s.PC.hits /. float_of_int looked)
              | None -> ())))

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Show image statistics.")
    Term.(const show_info $ image_arg)

let metrics image host port =
  handle_errors (fun () ->
      match (port, image) with
      | Some port, _ ->
          (* Remote scrape: the METRICS frame returns the *server
             process's* exposition — shard, pager, journal, flusher,
             trace and server families, while it serves. *)
          with_client host port (fun c ->
              print_string (remote_ok (Client.metrics c)))
      | None, Some image ->
          with_image image (fun _fs _posix -> print_string (Prometheus.expose ()))
      | None, None -> invalid_arg "metrics: need an IMAGE or --port")

let opt_image_arg =
  Arg.(value & pos 0 (some string) None
       & info [] ~docv:"IMAGE" ~doc:"Image file (omit with --port).")

let host_opt =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Server host.")

let port_opt =
  Arg.(value & opt (some int) None
       & info [ "port" ]
           ~doc:"Scrape a running serve instance instead of opening an image.")

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Dump the metrics registry in Prometheus text exposition format \
          (counters, gauges, latency histograms) — from an image opened \
          in-process, or scraped from a live server with --port.")
    Term.(const metrics $ opt_image_arg $ host_opt $ port_opt)

(* Run one operation with span tracing on and print the resulting tree:
   every layer the operation crossed (fs, index, btree, pager, device,
   ...) with per-span latency — §2.3's index traversals, made visible. *)
let trace image op args host port =
  handle_errors (fun () ->
      let usage () =
        invalid_arg
          "usage: trace IMAGE (put PATH DATA | search TERM.. | cat PATH)  or  \
           trace --port PORT"
      in
      match port with
      | Some port ->
          (* Remote dump: the server's recent span ring as Chrome trace
             JSON (enable tracing with serve --trace). *)
          with_client host port (fun c ->
              print_string (remote_ok (Client.trace c)))
      | None ->
      let image = match image with Some i -> i | None -> usage () in
      let op = match op with Some o -> o | None -> usage () in
      let write = String.equal op "put" in
      with_image ~write image (fun fs posix ->
          Trace.set_enabled true;
          Fun.protect
            ~finally:(fun () -> Trace.set_enabled false)
            (fun () ->
              Trace.clear ();
              (* One root span so the whole operation lands in one tree. *)
              Trace.with_span ~layer:"ctl" ~op (fun () ->
                  match (op, args) with
                  | "put", [ path; data ] ->
                      P.mkdir_p_exn posix (Hfad_posix.Path.parent path);
                      P.write_file_exn posix path data
                  | "cat", [ path ] -> ignore (P.read_file posix path)
                  | "search", (_ :: _ as terms) ->
                      ignore (Fs.search fs (String.concat " " terms))
                  | _ -> usage ());
              match Trace.last_trace () with
              | Some tr -> Format.printf "%a" Trace.pp_trace tr
              | None -> say "no spans recorded")))

let trace_cmd =
  let op =
    Arg.(value & pos 1 (some string) None & info [] ~docv:"OP"
           ~doc:"Operation to trace: put, search or cat.")
  in
  let args =
    Arg.(value & pos_right 1 string [] & info [] ~docv:"ARG"
           ~doc:"Operation arguments.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one put/search/cat with span tracing enabled and print the \
          span tree: each layer crossed, with per-span latency. With \
          --port, dump a live server's span ring as Chrome trace JSON \
          instead.")
    Term.(const trace $ opt_image_arg $ op $ args $ host_opt $ port_opt)

(* Serve an image over the wire protocol until SIGINT/SIGTERM, then
   flush and write the image back — the network front door as a
   process. *)
let serve image port workers sync trace_on slow_us =
  handle_errors (fun () ->
      let dev = Device.load image in
      let fs = Fs.open_existing_exn dev in
      if trace_on then Trace.set_enabled true;
      let config =
        Server.Config.v ~workers ~sync_ack:sync ~slow_threshold_us:slow_us ()
      in
      let server = Server.start ~config ~port fs in
      say "serving %s on 127.0.0.1:%d (%d worker domains, %s acks)" image
        (Server.port server) workers
        (if sync then "per-request" else "batched group-commit");
      if trace_on then say "span tracing on: scrape with 'trace --port %d'"
          (Server.port server);
      if slow_us > 0 then
        say "slow log on: requests >= %d us land in STATS" slow_us;
      say "stop with SIGINT; the image is flushed and saved on shutdown";
      let stop = Atomic.make false in
      let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      Sys.set_signal Sys.sigint on_signal;
      Sys.set_signal Sys.sigterm on_signal;
      while not (Atomic.get stop) do
        try Unix.sleepf 0.2
        with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      let stats = Server.stats server in
      let accepted =
        Counter.get
          (Registry.counter Registry.global
             (Server.metrics_prefix server ^ ".accepted"))
      in
      Server.stop server;
      Fs.sync_exn ~mode:`Checkpoint fs;
      Device.save dev image;
      Fs.close fs;
      say
        "served %d request(s) over %d connection(s) (%d batches, %d busy); \
         image saved"
        stats.Wire.Stats.requests accepted stats.Wire.Stats.batches
        stats.Wire.Stats.busy)

let serve_cmd =
  let port =
    Arg.(value & opt int 7070
         & info [ "port" ] ~doc:"TCP port to bind on 127.0.0.1 (0 = ephemeral).")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~doc:"Worker domains.")
  in
  let sync =
    Arg.(value & flag
         & info [ "sync" ]
             ~doc:
               "Barrier after every mutation instead of batching acks into \
                one group commit per worker iteration (the slow baseline \
                bench S1 measures against).")
  in
  let trace_on =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:
               "Enable span tracing so a remote 'trace --port' dump (and \
                the STATS span counters) see this server's requests.")
  in
  let slow_us =
    Arg.(value & opt int 0
         & info [ "slow-us" ]
             ~doc:
               "Record requests at least this slow (microseconds, measured \
                around execute) in the slow-request log exported via \
                STATS; 0 disables.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve an image over the length-prefixed wire protocol \
          (PUT/GET/DELETE/TAG/SEARCH/STAT/FLUSH, plus the \
          STATS/METRICS/TRACE observability scrapes).")
    Term.(const serve $ image_arg $ port $ workers $ sync $ trace_on $ slow_us)

let ping host port count =
  handle_errors (fun () ->
      let c = Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let rtts = List.init count (fun _ -> 1000. *. Client.ping c) in
          let sorted = List.sort compare rtts in
          say "%d ping(s) to %s:%d — min %.3f ms, median %.3f ms, max %.3f ms"
            count host port (List.nth sorted 0)
            (List.nth sorted (count / 2))
            (List.nth sorted (count - 1))))

let ping_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Server host.")
  in
  let port =
    Arg.(required & opt (some int) None & info [ "port" ] ~doc:"Server port.")
  in
  let count =
    Arg.(value & opt int 5 & info [ "n"; "count" ] ~doc:"Pings to send.")
  in
  Cmd.v
    (Cmd.info "ping"
       ~doc:"Round-trip the wire protocol against a running serve instance.")
    Term.(const ping $ host $ port $ count)

(* --- remote observability: stats / top ----------------------------------- *)

let req_port =
  Arg.(required & opt (some int) None & info [ "port" ] ~doc:"Server port.")

(* Quantiles are bucket upper bounds; max_int means the mass sat past
   the last bound (10M us). *)
let qstr v = if v = max_int then ">10M" else string_of_int v

let print_op_table ?prev ~dt (s : Wire.Stats.t) =
  say "  %-8s %10s %8s %9s %8s %8s %8s" "op" "count" "ops/s" "mean_us" "p50"
    "p90" "p99";
  List.iter
    (fun (o : Wire.Stats.op_stat) ->
      let pcount, psum =
        match prev with
        | None -> (0, 0)
        | Some (p : Wire.Stats.t) -> (
            match List.find_opt (fun (q : Wire.Stats.op_stat) -> q.op = o.op) p.ops with
            | Some q -> (q.count, q.sum_us)
            | None -> (0, 0))
      in
      let dcount = o.count - pcount in
      if o.count > 0 then
        say "  %-8s %10d %8.1f %9.1f %8s %8s %8s" o.op o.count
          (if dt > 0. then float_of_int dcount /. dt else 0.)
          (if dcount > 0 then float_of_int (o.sum_us - psum) /. float_of_int dcount
           else 0.)
          (qstr o.p50_us) (qstr o.p90_us) (qstr o.p99_us))
    s.ops

let print_shard_table ?prev ~dt (s : Wire.Stats.t) =
  say "  %-8s %8s %8s %8s %10s %10s" "shard" "ckpts" "ckpt/s" "journal"
    "dirty" "resident";
  List.iter
    (fun (sh : Wire.Stats.shard_stat) ->
      let pckpt =
        match prev with
        | None -> sh.checkpoints
        | Some (p : Wire.Stats.t) -> (
            match
              List.find_opt
                (fun (q : Wire.Stats.shard_stat) -> q.shard = sh.shard)
                p.shards
            with
            | Some q -> q.checkpoints
            | None -> sh.checkpoints)
      in
      say "  %-8d %8d %8.1f %8d %10d %d/%d" sh.shard sh.checkpoints
        (if dt > 0. then float_of_int (sh.checkpoints - pckpt) /. dt else 0.)
        sh.journal_capacity_pages sh.dirty_pages sh.resident_pages
        sh.cache_pages)
    s.shards

let print_stats (s : Wire.Stats.t) =
  say "server : up %.1f s, %d connection(s), %d inflight"
    (float_of_int s.uptime_us /. 1e6)
    s.connections s.inflight;
  say "requests: %d (busy %d, errors %d)" s.requests s.busy s.errors;
  say "batches : %d (%d acked ops, avg batch %.2f)" s.batches s.batch_ops
    (if s.batches > 0 then float_of_int s.batch_ops /. float_of_int s.batches
     else 0.);
  say "bytes   : %d in, %d out" s.bytes_in s.bytes_out;
  say "trace   : %d span(s), %d dropped" s.trace_spans s.trace_dropped;
  say "flusher : queue age %d us" s.flusher_queue_age_us;
  say "per-op latency (us, since server start):";
  print_op_table ~dt:0. s;
  say "per-shard occupancy:";
  print_shard_table ~dt:0. s;
  if s.slow <> [] then begin
    say "slow requests (%d):" (List.length s.slow);
    List.iter (fun line -> say "  %s" line) s.slow
  end

let stats_remote host port =
  handle_errors (fun () ->
      with_client host port (fun c -> print_stats (remote_ok (Client.stats c))))

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "One-shot scrape of a running serve instance's STATS snapshot: \
          per-op latency quantiles, batching, per-shard occupancy, slow \
          log.")
    Term.(const stats_remote $ host_opt $ req_port)

(* [top]: rates are deltas between two STATS snapshots — the server
   never computes a rate, so an idle dashboard costs it nothing. *)
let print_top ~host ~port ~interval prev (s : Wire.Stats.t) =
  let dt =
    match prev with
    | Some (p : Wire.Stats.t) -> float_of_int (s.uptime_us - p.uptime_us) /. 1e6
    | None -> 0.
  in
  let rate cur prv = if dt > 0. then float_of_int (cur - prv) /. dt else 0. in
  let d f = match prev with Some p -> f (p : Wire.Stats.t) | None -> 0 in
  say "hfadctl top — %s:%d   up %.1f s   refresh %.1f s%s" host port
    (float_of_int s.uptime_us /. 1e6)
    interval
    (if prev = None then "   (gathering rates...)" else "");
  say "conns %d   inflight %d   ops/s %.1f   busy/s %.1f   err/s %.1f"
    s.connections s.inflight
    (rate s.requests (d (fun p -> p.requests)))
    (rate s.busy (d (fun p -> p.busy)))
    (rate s.errors (d (fun p -> p.errors)));
  let dbatches = s.batches - d (fun p -> p.batches) in
  let dbatch_ops = s.batch_ops - d (fun p -> p.batch_ops) in
  say "batches/s %.1f   avg batch %.2f   bytes/s in %.0f out %.0f"
    (rate s.batches (d (fun p -> p.batches)))
    (if dbatches > 0 then float_of_int dbatch_ops /. float_of_int dbatches
     else 0.)
    (rate s.bytes_in (d (fun p -> p.bytes_in)))
    (rate s.bytes_out (d (fun p -> p.bytes_out)));
  say "trace spans %d (dropped %d)   flusher queue age %d us" s.trace_spans
    s.trace_dropped s.flusher_queue_age_us;
  print_op_table ?prev ~dt s;
  print_shard_table ?prev ~dt s;
  match List.rev s.slow with
  | [] -> ()
  | last :: _ -> say "slow: %s" last

let top host port interval count =
  handle_errors (fun () ->
      if interval <= 0. then invalid_arg "top: --interval must be positive";
      with_client host port (fun c ->
          let stop = Atomic.make false in
          (try
             Sys.set_signal Sys.sigint
               (Sys.Signal_handle (fun _ -> Atomic.set stop true))
           with Invalid_argument _ | Sys_error _ -> ());
          let prev = ref None in
          let shown = ref 0 in
          while (not (Atomic.get stop)) && (count = 0 || !shown < count) do
            let s = remote_ok (Client.stats c) in
            print_string "\027[2J\027[H";  (* clear screen, cursor home *)
            print_top ~host ~port ~interval !prev s;
            Format.print_flush ();
            flush stdout;
            prev := Some s;
            incr shown;
            if (count = 0 || !shown < count) && not (Atomic.get stop) then (
              try Unix.sleepf interval
              with Unix.Unix_error (Unix.EINTR, _, _) -> ())
          done))

let top_cmd =
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~doc:"Seconds between refreshes.")
  in
  let count =
    Arg.(value & opt int 0
         & info [ "n"; "count" ]
             ~doc:"Stop after N refreshes (0 = until SIGINT).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a running serve instance: ops/s, \
          per-op p50/p99, batch size, BUSY rate and per-shard heat, \
          computed from successive STATS deltas.")
    Term.(const top $ host_opt $ req_port $ interval $ count)

let () =
  let doc = "tagged, search-based file system (hFAD) image tool" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "hfadctl" ~version:"1.0" ~doc)
          [
            mkfs_cmd; put_cmd; cat_cmd; ls_cmd; mkdir_cmd; rm_cmd; tag_cmd;
            untag_cmd; tags_cmd; search_cmd; find_cmd; query_cmd; stat_cmd;
            info_cmd; mv_cmd; ln_cmd; insert_cmd; compact_cmd; metrics_cmd;
            trace_cmd; serve_cmd; ping_cmd; stats_cmd; top_cmd;
          ]))
