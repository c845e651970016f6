(* C6 — §3.4's lazy background indexing: "we use background threads to
   perform lazy full-text indexing."

   The trade: lazy ingest returns quickly (index work deferred), at the
   price of a staleness window during which new content is reachable by
   ID or tag but not yet by search. We ingest a burst of documents under
   both policies, then drain the lazy backlog in batches, reporting the
   searchable fraction after each batch. *)

module Device = Hfad_blockdev.Device
module Rng = Hfad_util.Rng
module Fs = Hfad.Fs
module Corpus = Hfad_workload.Corpus
module Load = Hfad_workload.Load
module P = Hfad_posix.Posix_fs
module Index_store = Hfad_index.Index_store
open Bench_util

let burst () = scaled 2000 ~smoke:120
let drain_batch () = scaled 250 ~smoke:40

let ingest mode =
  let dev = Device.create ~block_size:4096 ~blocks:262144 () in
  let fs = Fs.format ~config:(Fs.Config.v ~cache_pages:8192 ~index_mode:mode ()) dev in
  let posix = P.mount fs in
  let emails = Corpus.emails (Rng.create 5L) ~count:(burst ()) in
  let _, ms = time_ms (fun () -> ignore (Load.emails_into_hfad posix emails)) in
  (fs, ms)

let run () =
  heading
    (Printf.sprintf "C6: lazy vs eager content indexing (burst of %d documents)"
       (burst ()));
  let fs_eager, eager_ms = ingest Fs.Eager in
  let fs_lazy, lazy_ms = ingest Fs.Lazy in
  let eager_backlog = Fs.index_backlog fs_eager in
  let lazy_backlog = Fs.index_backlog fs_lazy in
  table
    [
      [ "policy"; "ingest wall time"; "backlog after ingest" ];
      [ "eager"; fmt_f1 eager_ms ^ " ms"; fmt_int eager_backlog ];
      [ "lazy (paper 3.4)"; fmt_f1 lazy_ms ^ " ms"; fmt_int lazy_backlog ];
    ];
  say "";
  say "draining the lazy backlog in batches of %d:" (drain_batch ());
  let expected = List.length (Fs.search fs_eager "budget") in
  let store = Fs.index fs_lazy in
  (* (backlog, 'budget' hits) after each batch, newest first. *)
  let samples = ref [] in
  let record () =
    samples :=
      (Fs.index_backlog fs_lazy, List.length (Fs.search fs_lazy "budget"))
      :: !samples
  in
  record ();
  while Fs.index_backlog fs_lazy > 0 do
    ignore (Index_store.drain ~max_items:(drain_batch ()) store);
    record ()
  done;
  let samples = List.rev !samples in
  table
    ([ "batches drained"; "backlog"; "'budget' hits"; "visibility" ]
    :: List.mapi
         (fun batch (backlog, visible) ->
           [
             fmt_int batch;
             fmt_int backlog;
             fmt_int visible;
             Printf.sprintf "%.0f%%"
               (100. *. float_of_int visible /. float_of_int (max 1 expected));
           ])
         samples);
  say "";
  say "expected shape: lazy ingest returns faster; search visibility climbs";
  say "to 100%% only as the drain catches up.";
  (* The shape this bench exists to show, asserted on every run. Only
     counts are checked, never wall time. The drain loop ends at backlog
     0, so the last check also makes the drained lazy hit count equal
     the eager one. *)
  let fail fmt = Printf.ksprintf (fun m -> failwith ("C6: " ^ m)) fmt in
  if lazy_backlog <> burst () then
    fail "lazy backlog after ingest is %d, not the burst size %d" lazy_backlog
      (burst ());
  if eager_backlog <> 0 then fail "eager backlog after ingest is %d" eager_backlog;
  ignore
    (List.fold_left
       (fun prev (backlog, visible) ->
         if visible < prev then fail "visibility fell from %d to %d" prev visible;
         if (visible = expected) <> (backlog = 0) then
           fail "%d of %d hits visible at backlog %d" visible expected backlog;
         visible)
       0 samples)
