module Osd = Hfad_osd.Osd
module Histogram = Hfad_metrics.Histogram
module Counter = Hfad_metrics.Counter
module Registry = Hfad_metrics.Registry
module Trace = Hfad_trace.Trace
module Wakeup = Hfad_util.Wakeup

(* One set of pipeline metrics per process (same convention as the OSD's
   op counters): several Fs instances share the histograms, and bench
   code re-attaches to them by name through the registry. *)
let h_latency = lazy (Histogram.make "fs.pipeline.commit_latency_us")
let h_batch_ops = lazy (Histogram.make "fs.pipeline.batch_ops")
let h_batch_pages = lazy (Histogram.make "fs.pipeline.batch_pages")
let c_commits = lazy (Registry.counter Registry.global "fs.pipeline.commits")

(* Saturation gauge: age of the oldest acknowledged-but-not-durable
   mutation, sampled at each commit (0 once the queue drains). Cheap
   enough to publish unconditionally — one [Counter.set] per commit, not
   per mutation. *)
let g_queue_age =
  lazy (Registry.counter Registry.global "flusher.queue_age_us")

type t = {
  mutex : Mutex.t;
  done_ : Condition.t; (* barrier wake: a commit finished (or daemon died) *)
  dirty_count : unit -> int;
  commit : unit -> (unit, Osd.error) result;
  step : unit -> bool;
  batch_max_pages : int;
  batch_max_age : float;
  mutable wakeup : Wakeup.t option;  (* the daemon's wake, while it runs *)
  mutable worker : Thread.t option;
  mutable stop_req : bool;
  mutable urgent : bool;  (* commit now: a barrier waits, or the size trigger *)
  mutable step_due : bool;  (* run [step]: a commit ended since it last declined *)
  mutable acked : int;    (* mutations acknowledged (sequence numbers) *)
  mutable durable : int;  (* highest acked mutation made durable *)
  mutable commits : int;
  mutable first_pending : float;  (* arrival of oldest unflushed ack; 0 = none *)
  mutable failed : Osd.error option;  (* sticky: first commit failure *)
  mutable exited : bool;  (* daemon thread has left its loop *)
}

let create ?(batch_max_pages = 256) ?(batch_max_age = 0.010)
    ?(step = fun () -> false) ~dirty_count ~commit () =
  if batch_max_pages <= 0 then invalid_arg "Flusher.create: batch_max_pages";
  if batch_max_age < 0.0 then invalid_arg "Flusher.create: batch_max_age";
  {
    mutex = Mutex.create ();
    done_ = Condition.create ();
    dirty_count;
    commit;
    step;
    batch_max_pages;
    batch_max_age;
    wakeup = None;
    worker = None;
    stop_req = false;
    urgent = false;
    step_due = false;
    acked = 0;
    durable = 0;
    commits = 0;
    first_pending = 0.0;
    failed = None;
    exited = false;
  }

let running t = t.worker <> None

(* Caller holds [t.mutex] and has just changed what the daemon waits for. *)
let wake t = Option.iter Wakeup.signal t.wakeup

(* A batch's first mutation starts its age clock, so the daemon must
   learn its deadline. The size trigger wakes it once, when it trips:
   until the commit starts, [urgent] stays set and a wake is pending. *)
let note_mutation t =
  let full = t.dirty_count () >= t.batch_max_pages in
  Mutex.lock t.mutex;
  t.acked <- t.acked + 1;
  let first = t.first_pending = 0.0 in
  if first then t.first_pending <- Unix.gettimeofday ();
  let trips = full && not t.urgent in
  if trips then t.urgent <- true;
  if first || trips then wake t;
  Mutex.unlock t.mutex

(* The commit itself runs without the flusher mutex: it takes the stack's
   rwlock exclusively, and mutators under that rwlock call
   {!note_mutation}, which takes the flusher mutex — holding both here
   would close a cycle. The [target] snapshot taken before unlocking can
   only under-report durability (mutations acknowledged mid-commit may
   or may not make this checkpoint, so they stay officially pending). *)
let run_commit t =
  let target = t.acked in
  t.urgent <- false;
  let queue_age_us =
    if t.first_pending > 0.0 then
      int_of_float ((Unix.gettimeofday () -. t.first_pending) *. 1e6)
    else 0
  in
  Counter.set (Lazy.force g_queue_age) queue_age_us;
  Mutex.unlock t.mutex;
  let pages = t.dirty_count () in
  let t0 = Unix.gettimeofday () in
  let result =
    if Trace.enabled () then
      Trace.with_span ~layer:"flusher" ~op:"commit"
        ~attrs:
          [
            ("pages", string_of_int pages);
            ("queue_age_us", string_of_int queue_age_us);
          ]
        t.commit
    else t.commit ()
  in
  let dt_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  Mutex.lock t.mutex;
  (match result with
  | Ok () ->
      Histogram.observe (Lazy.force h_latency) dt_us;
      Histogram.observe (Lazy.force h_batch_ops) (target - t.durable);
      Histogram.observe (Lazy.force h_batch_pages) pages;
      Counter.incr (Lazy.force c_commits);
      t.commits <- t.commits + 1;
      t.durable <- max t.durable target;
      t.first_pending <-
        (if t.acked > t.durable then Unix.gettimeofday () else 0.0);
      if t.first_pending = 0.0 then Counter.set (Lazy.force g_queue_age) 0
  | Error e -> if t.failed = None then t.failed <- Some e);
  Condition.broadcast t.done_;
  result

(* One background step, without the flusher mutex (it takes the stack's
   rwlock, as a commit does). Once it declines, or raises, the next one
   waits for the next commit, so a failing step never spins. *)
let run_step t =
  Mutex.unlock t.mutex;
  let more =
    match
      if Trace.enabled () then Trace.with_span ~layer:"flusher" ~op:"step" t.step
      else t.step ()
    with
    | more -> more
    | exception _ -> false
  in
  Mutex.lock t.mutex;
  if not more then t.step_due <- false

(* The daemon holds [t.mutex] except while it sleeps, commits or steps.
   A due commit comes first; then, once a commit has released its
   waiters, background steps run one at a time until one declines; then
   it sleeps until woken, or with work pending, until the oldest pending
   mutation comes of age. *)
let worker_loop t wakeup =
  let rec run () =
    let pending = t.acked > t.durable in
    if (not pending) && t.stop_req then begin
      (* stop requested, nothing pending: clean exit *)
      t.exited <- true;
      Condition.broadcast t.done_;
      Mutex.unlock t.mutex
    end
    else
      let age_left =
        t.first_pending +. t.batch_max_age -. Unix.gettimeofday ()
      in
      if pending && (t.stop_req || t.urgent || age_left <= 0.0) then
        match run_commit t with
        | Ok () ->
            t.step_due <- true;
            run ()
        | Error _ ->
            (* Sticky failure: exit rather than retry against a sick
               device; barriers see [t.failed]. *)
            t.exited <- true;
            Mutex.unlock t.mutex
      else if t.step_due && not t.stop_req then begin
        run_step t;
        run ()
      end
      else begin
        Mutex.unlock t.mutex;
        Wakeup.wait wakeup
          ~timeout:(if pending then Some age_left else None);
        Mutex.lock t.mutex;
        run ()
      end
  in
  Mutex.lock t.mutex;
  run ()

let start t =
  match t.worker with
  | Some _ -> ()
  | None ->
      let wakeup = Wakeup.create () in
      Mutex.lock t.mutex;
      t.wakeup <- Some wakeup;
      t.stop_req <- false;
      t.urgent <- false;
      t.step_due <- false;
      t.failed <- None;
      t.exited <- false;
      Mutex.unlock t.mutex;
      t.worker <- Some (Thread.create (worker_loop t) wakeup)

(* The pipe closes only after the join, and under the mutex, so no wake
   can reach a closed (or reused) descriptor. *)
let stop t =
  match t.worker with
  | None -> ()
  | Some thread ->
      Mutex.lock t.mutex;
      t.stop_req <- true;
      wake t;
      Mutex.unlock t.mutex;
      Thread.join thread;
      Mutex.protect t.mutex (fun () ->
          Option.iter Wakeup.close t.wakeup;
          t.wakeup <- None);
      t.worker <- None;
      t.stop_req <- false

let barrier t =
  Mutex.lock t.mutex;
  let target = t.acked in
  let result =
    if target <= t.durable then Ok ()
    else if t.worker = None || t.exited then
      match t.failed with Some e -> Error e | None -> Error Osd.Stopped
    else begin
      t.urgent <- true;
      wake t;
      while t.durable < target && t.failed = None && not t.exited do
        Condition.wait t.done_ t.mutex
      done;
      if t.durable >= target then Ok ()
      else match t.failed with Some e -> Error e | None -> Error Osd.Stopped
    end
  in
  Mutex.unlock t.mutex;
  result

type stats = { acked : int; durable : int; commits : int }

let stats t =
  Mutex.lock t.mutex;
  let s = { acked = t.acked; durable = t.durable; commits = t.commits } in
  Mutex.unlock t.mutex;
  s

let commit_latency _t = Lazy.force h_latency
let batch_ops _t = Lazy.force h_batch_ops
let batch_pages _t = Lazy.force h_batch_pages
