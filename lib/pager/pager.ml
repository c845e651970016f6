module Device = Hfad_blockdev.Device
module Counter = Hfad_metrics.Counter
module Registry = Hfad_metrics.Registry
module Trace = Hfad_trace.Trace

type full_reason = All_pinned | Dirty_no_steal

exception Cache_full of full_reason

type policy = [ `Lru | `Twoq ]

(* Which replacement queue a frame currently sits on. [Q_none] is only
   ever observed on sentinels and on frames mid-removal. *)
type queue_id = Q_none | Q_a1in | Q_am

(* Frames are intrusive doubly-linked list nodes: eviction, promotion
   and recency updates are pointer splices, never a table scan. A
   detached frame links to itself. *)
type frame = {
  buf : Bytes.t;
  mutable page_no : int;
  mutable dirty : bool;
  mutable pins : int;
  mutable queue : queue_id;
  mutable prev : frame;
  mutable next : frame;
}

(* Ghost entries (2Q's A1out): page numbers of recently evicted
   probationary pages, no data attached. A ghost hit is the signal that
   a page has been re-referenced after eviction and deserves the
   protected queue. *)
type ghost = { g_page : int; mutable g_prev : ghost; mutable g_next : ghost }

type stats = {
  reads : int;
  hits : int;
  misses : int;
  write_backs : int;
  evictions : int;
  ghost_hits : int;
  lock_acquisitions : int;
  lock_waits : int;
}

type occupancy = { a1in : int; a1out : int; am : int }

type t = {
  dev : Device.t;
  capacity : int;
  no_steal : bool;
  policy : policy;
  kin : int;   (* A1in target length: probationary FIFO for first-touch pages *)
  kout : int;  (* A1out (ghost) capacity: eviction history window *)
  frames : (int, frame) Hashtbl.t;  (* page_no -> resident frame *)
  a1in : frame;  (* sentinel; head = most recent arrival *)
  am : frame;    (* sentinel; head = most recently used *)
  gsent : ghost; (* sentinel for the ghost FIFO *)
  ghosts : (int, ghost) Hashtbl.t;  (* page_no -> ghost node *)
  mutable a1in_len : int;
  mutable am_len : int;
  mutable ghost_len : int;
  dirty_table : (int, frame) Hashtbl.t;
      (* page_no -> resident dirty frame: updated wherever a frame's
         dirty bit flips, so write-back and snapshots visit only these *)
  mutex : Mutex.t;
  (* Atomic so concurrent domains never lose an update and [stats] /
     [reset_stats] need not take the frame-table mutex. *)
  reads : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  write_backs : int Atomic.t;
  evictions : int Atomic.t;
  a1in_evictions : int Atomic.t;
  ghost_hits : int Atomic.t;
  lock_acquisitions : int Atomic.t;
  lock_waits : int Atomic.t;
  (* Per-pager registry gauges, published under [metrics_prefix]. *)
  m_evictions : Counter.t;
  m_ghost_hits : Counter.t;
  m_a1in : Counter.t;
  m_a1out : Counter.t;
  m_am : Counter.t;
  m_scan_resistance : Counter.t;
}

(* Process-wide aggregates, comparable to the other layers' lock
   footprints in experiment tables. *)
let g_lock_acq = Registry.counter Registry.global "pager.lock_acquisitions"
let g_lock_waits = Registry.counter Registry.global "pager.lock_waits"
let g_evictions = Registry.counter Registry.global "pager.evictions"
let g_ghost_hits = Registry.counter Registry.global "pager.ghost_hits"

(* --- intrusive lists ---------------------------------------------------- *)

let frame_sentinel () =
  let rec s =
    {
      buf = Bytes.empty;
      page_no = -1;
      dirty = false;
      pins = 0;
      queue = Q_none;
      prev = s;
      next = s;
    }
  in
  s

let unlink f =
  f.prev.next <- f.next;
  f.next.prev <- f.prev;
  f.prev <- f;
  f.next <- f

let push_front sent f =
  f.next <- sent.next;
  f.prev <- sent;
  sent.next.prev <- f;
  sent.next <- f

let ghost_sentinel () =
  let rec s = { g_page = -1; g_prev = s; g_next = s } in
  s

let ghost_unlink g =
  g.g_prev.g_next <- g.g_next;
  g.g_next.g_prev <- g.g_prev;
  g.g_prev <- g;
  g.g_next <- g

let ghost_push_front sent g =
  g.g_next <- sent.g_next;
  g.g_prev <- sent;
  sent.g_next.g_prev <- g;
  sent.g_next <- g

(* --- construction ------------------------------------------------------- *)

(* Instance prefixes come from the recycling pool so that open/close
   cycles and multi-shard stacks can neither collide on a live prefix
   nor leak registry entries (see {!Hfad_metrics.Prefix_pool}). *)

let create ?(cache_pages = 1024) ?(no_steal = false) ?(policy = `Twoq) ?kin
    ?kout dev =
  if cache_pages <= 0 then invalid_arg "Pager.create: cache_pages";
  (* 2Q tuning per Johnson & Shasha: A1in ~ 25% of the cache holds pages
     seen once; the ghost window remembers ~50% of capacity worth of
     recent evictions so a re-reference within that window earns Am. *)
  let kin = match kin with Some k -> max 1 k | None -> max 1 (cache_pages / 4) in
  let kout =
    match kout with Some k -> max 0 k | None -> max 1 (cache_pages / 2)
  in
  let prefix = Hfad_metrics.Prefix_pool.acquire "pager" in
  let gauge name = Registry.counter Registry.global (prefix ^ "." ^ name) in
  {
    dev;
    capacity = cache_pages;
    no_steal;
    policy;
    kin;
    kout;
    frames = Hashtbl.create (2 * cache_pages);
    a1in = frame_sentinel ();
    am = frame_sentinel ();
    gsent = ghost_sentinel ();
    ghosts = Hashtbl.create (2 * kout);
    a1in_len = 0;
    am_len = 0;
    ghost_len = 0;
    dirty_table = Hashtbl.create 64;
    mutex = Mutex.create ();
    reads = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    write_backs = Atomic.make 0;
    evictions = Atomic.make 0;
    a1in_evictions = Atomic.make 0;
    ghost_hits = Atomic.make 0;
    lock_acquisitions = Atomic.make 0;
    lock_waits = Atomic.make 0;
    m_evictions = gauge "evictions";
    m_ghost_hits = gauge "ghost_hits";
    m_a1in = gauge "a1in";
    m_a1out = gauge "a1out";
    m_am = gauge "am";
    m_scan_resistance = gauge "scan_resistance_pct";
  }

let page_size t = Device.block_size t.dev
let pages t = Device.blocks t.dev
let device t = t.dev
let policy t = t.policy

(* The pager's own counters in {!Hfad_metrics.Registry.global} live under
   this prefix ([<prefix>.evictions], [<prefix>.a1in], ...). *)
let metrics_prefix t =
  let n = Counter.name t.m_evictions in
  String.sub n 0 (String.index n '.')

let close t = Hfad_metrics.Prefix_pool.release (metrics_prefix t)

(* Republish queue occupancies and the scan-resistance gauge. Called
   inside the frame-table lock after structural changes; four atomic
   stores, O(1). *)
let publish_gauges t =
  Counter.set t.m_a1in t.a1in_len;
  Counter.set t.m_am t.am_len;
  Counter.set t.m_a1out t.ghost_len;
  let ev = Atomic.get t.evictions in
  if ev > 0 then
    Counter.set t.m_scan_resistance (100 * Atomic.get t.a1in_evictions / ev)

(* Frame-table critical section, with contention observed exactly the way
   the hierarchical baseline's lock table observes it: an acquisition that
   fails [try_lock] found the lock held by another thread. *)
let with_lock t f =
  Atomic.incr t.lock_acquisitions;
  Counter.incr g_lock_acq;
  if not (Mutex.try_lock t.mutex) then begin
    Atomic.incr t.lock_waits;
    Counter.incr g_lock_waits;
    Mutex.lock t.mutex
  end;
  match f () with
  | result ->
      Mutex.unlock t.mutex;
      result
  | exception e ->
      Mutex.unlock t.mutex;
      raise e

let mark_dirty t frame =
  if not frame.dirty then begin
    frame.dirty <- true;
    Hashtbl.replace t.dirty_table frame.page_no frame
  end

let write_back t frame =
  if frame.dirty then begin
    Device.write_block t.dev frame.page_no frame.buf;
    frame.dirty <- false;
    Hashtbl.remove t.dirty_table frame.page_no;
    Atomic.incr t.write_backs
  end

(* --- ghost (A1out) maintenance ------------------------------------------ *)

let ghost_insert t page_no =
  if t.kout > 0 then begin
    let rec g = { g_page = page_no; g_prev = g; g_next = g } in
    ghost_push_front t.gsent g;
    Hashtbl.replace t.ghosts page_no g;
    t.ghost_len <- t.ghost_len + 1;
    if t.ghost_len > t.kout then begin
      let oldest = t.gsent.g_prev in
      ghost_unlink oldest;
      Hashtbl.remove t.ghosts oldest.g_page;
      t.ghost_len <- t.ghost_len - 1
    end
  end

let ghost_take t page_no =
  match Hashtbl.find_opt t.ghosts page_no with
  | None -> false
  | Some g ->
      ghost_unlink g;
      Hashtbl.remove t.ghosts page_no;
      t.ghost_len <- t.ghost_len - 1;
      true

(* --- residency / queue bookkeeping -------------------------------------- *)

let remove_from_queue t frame =
  (match frame.queue with
  | Q_a1in -> t.a1in_len <- t.a1in_len - 1
  | Q_am -> t.am_len <- t.am_len - 1
  | Q_none -> ());
  frame.queue <- Q_none;
  unlink frame

let enqueue t frame q =
  frame.queue <- q;
  (match q with
  | Q_a1in ->
      push_front t.a1in frame;
      t.a1in_len <- t.a1in_len + 1
  | Q_am ->
      push_front t.am frame;
      t.am_len <- t.am_len + 1
  | Q_none -> assert false)

(* Drop a frame from the cache entirely (write-back included). *)
let drop_frame t frame =
  write_back t frame;
  remove_from_queue t frame;
  Hashtbl.remove t.frames frame.page_no

(* A frame the replacement policy may take: not pinned, and not a dirty
   frame under NO-STEAL (those reach the device only through flush). *)
let evictable t frame = frame.pins = 0 && not (t.no_steal && frame.dirty)

(* Walk a queue from its LRU end toward the head, skipping frames the
   policy must not take. O(1) in the common case (the tail frame is
   evictable); degrades gracefully to O(#pinned + #dirty-held) — never a
   scan of the whole frame table. *)
let victim_in t sent =
  let rec walk f = if f == sent then None else if evictable t f then Some f else walk f.prev in
  walk sent.prev

(* Diagnose a failed eviction while still holding the lock: if any
   unpinned frame was blocked only by NO-STEAL dirtiness the caller's
   remedy is a checkpoint ([flush]); if literally every frame is pinned
   the cache is undersized for the pin working set (or pins leaked). *)
let full_reason t =
  let blocked_dirty = ref false in
  Hashtbl.iter
    (fun _ f -> if f.pins = 0 && t.no_steal then blocked_dirty := true)
    t.dirty_table;
  if !blocked_dirty then Dirty_no_steal else All_pinned

(* Evict one frame in O(1): 2Q takes the oldest probationary (A1in) frame
   while A1in exceeds its target, remembering it as a ghost; otherwise the
   LRU end of the protected queue. Plain LRU keeps everything on [am]. *)
let evict_one t =
  let victim =
    match t.policy with
    | `Lru -> victim_in t t.am
    | `Twoq ->
        if t.a1in_len > t.kin then
          match victim_in t t.a1in with
          | Some _ as v -> v
          | None -> victim_in t t.am
        else (
          match victim_in t t.am with
          | Some _ as v -> v
          | None -> victim_in t t.a1in)
  in
  match victim with
  | None -> raise (Cache_full (full_reason t))
  | Some frame ->
      let from_a1in = frame.queue = Q_a1in in
      drop_frame t frame;
      if Trace.enabled () then
        Trace.event ~layer:"pager" ~op:"evict"
          ~attrs:[ ("page", string_of_int frame.page_no) ]
          ();
      Atomic.incr t.evictions;
      Counter.incr g_evictions;
      Counter.incr t.m_evictions;
      if t.policy = `Twoq && from_a1in then begin
        Atomic.incr t.a1in_evictions;
        ghost_insert t frame.page_no
      end

(* Find or load the frame for [page_no]; pins it before returning. *)
let acquire t page_no ~load =
  with_lock t (fun () ->
      Atomic.incr t.reads;
      match Hashtbl.find_opt t.frames page_no with
      | Some frame ->
          Atomic.incr t.hits;
          if Trace.enabled () then
            Trace.event ~layer:"pager" ~op:"hit"
              ~attrs:[ ("page", string_of_int page_no) ]
              ();
          (match (t.policy, frame.queue) with
          | `Lru, _ | `Twoq, Q_am ->
              (* Move to the MRU end of the protected queue. *)
              remove_from_queue t frame;
              enqueue t frame Q_am
          | `Twoq, Q_a1in ->
              (* A1in is a FIFO: a hit during probation does not reorder;
                 only surviving eviction and returning (ghost hit) earns
                 promotion. This is what makes one sequential scan unable
                 to reorder anything. *)
              ()
          | `Twoq, Q_none -> assert false);
          frame.pins <- frame.pins + 1;
          frame
      | None ->
          Atomic.incr t.misses;
          let fill () =
            if Hashtbl.length t.frames >= t.capacity then evict_one t;
            let buf = Bytes.create (Device.block_size t.dev) in
            if load then Device.read_block_into t.dev page_no buf
            else Bytes.fill buf 0 (Bytes.length buf) '\000';
            buf
          in
          let buf =
            if Trace.enabled () then
              Trace.with_span ~layer:"pager" ~op:"miss"
                ~attrs:[ ("page", string_of_int page_no) ]
                fill
            else fill ()
          in
          let rec frame =
            {
              buf;
              page_no;
              dirty = false;
              pins = 1;
              queue = Q_none;
              prev = frame;
              next = frame;
            }
          in
          let target =
            match t.policy with
            | `Lru -> Q_am
            | `Twoq ->
                if ghost_take t page_no then begin
                  Atomic.incr t.ghost_hits;
                  Counter.incr g_ghost_hits;
                  Counter.incr t.m_ghost_hits;
                  Q_am
                end
                else Q_a1in
          in
          if not load then mark_dirty t frame;
          enqueue t frame target;
          Hashtbl.replace t.frames page_no frame;
          publish_gauges t;
          frame)

let release t frame ~dirty =
  with_lock t (fun () ->
      frame.pins <- frame.pins - 1;
      if dirty then mark_dirty t frame)

let with_page t page_no f =
  let frame = acquire t page_no ~load:true in
  match f frame.buf with
  | result ->
      release t frame ~dirty:false;
      result
  | exception e ->
      release t frame ~dirty:false;
      raise e

let with_page_mut t page_no f =
  let frame = acquire t page_no ~load:true in
  match f frame.buf with
  | result ->
      release t frame ~dirty:true;
      result
  | exception e ->
      (* Conservatively keep the page dirty: the callback may have
         mutated the buffer before raising. *)
      release t frame ~dirty:true;
      raise e

let with_page_update t page_no f =
  let frame = acquire t page_no ~load:true in
  match f frame.buf with
  | result, dirtied ->
      release t frame ~dirty:dirtied;
      result
  | exception e ->
      release t frame ~dirty:true;
      raise e

let zero_page t page_no =
  let frame = acquire t page_no ~load:false in
  Bytes.fill frame.buf 0 (Bytes.length frame.buf) '\000';
  release t frame ~dirty:true

let dirty_count t = with_lock t (fun () -> Hashtbl.length t.dirty_table)

(* The dirty frames in ascending page order, from the dirty table. *)
let dirty_frames t =
  Hashtbl.fold (fun _ frame acc -> frame :: acc) t.dirty_table []
  |> List.sort (fun a b -> Int.compare a.page_no b.page_no)

let dirty_pages t =
  with_lock t (fun () ->
      List.map (fun frame -> (frame.page_no, frame.buf)) (dirty_frames t))

let flush_plain t =
  with_lock t (fun () -> List.iter (write_back t) (dirty_frames t));
  Device.flush t.dev

let flush t =
  if Trace.enabled () then
    Trace.with_span ~layer:"pager" ~op:"flush" (fun () -> flush_plain t)
  else flush_plain t

let flush_pages_plain t page_nos =
  with_lock t (fun () ->
      List.iter
        (fun no ->
          match Hashtbl.find_opt t.dirty_table no with
          | Some frame -> write_back t frame
          | None -> ())
        page_nos);
  Device.flush t.dev

let flush_pages t page_nos =
  if Trace.enabled () then
    Trace.with_span ~layer:"pager" ~op:"flush"
      ~attrs:[ ("pages", string_of_int (List.length page_nos)) ]
      (fun () -> flush_pages_plain t page_nos)
  else flush_pages_plain t page_nos

let invalidate t =
  with_lock t (fun () ->
      let victims =
        Hashtbl.fold
          (fun _ frame acc -> if frame.pins = 0 then frame :: acc else acc)
          t.frames []
      in
      List.iter (fun frame -> drop_frame t frame) victims;
      (* Cold cache means cold history too: a later re-reference should
         not inherit pre-invalidate recency. *)
      Hashtbl.reset t.ghosts;
      let rec clear () =
        let g = t.gsent.g_next in
        if g != t.gsent then begin
          ghost_unlink g;
          clear ()
        end
      in
      clear ();
      t.ghost_len <- 0;
      publish_gauges t)

let occupancy t =
  with_lock t (fun () -> { a1in = t.a1in_len; a1out = t.ghost_len; am = t.am_len })

let scan_resistance t =
  let ev = Atomic.get t.evictions in
  if ev = 0 then 1.0 else float_of_int (Atomic.get t.a1in_evictions) /. float_of_int ev

let stats t =
  {
    reads = Atomic.get t.reads;
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    write_backs = Atomic.get t.write_backs;
    evictions = Atomic.get t.evictions;
    ghost_hits = Atomic.get t.ghost_hits;
    lock_acquisitions = Atomic.get t.lock_acquisitions;
    lock_waits = Atomic.get t.lock_waits;
  }

let reset_stats t =
  Atomic.set t.reads 0;
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.write_backs 0;
  Atomic.set t.evictions 0;
  Atomic.set t.a1in_evictions 0;
  Atomic.set t.ghost_hits 0;
  Atomic.set t.lock_acquisitions 0;
  Atomic.set t.lock_waits 0

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "reads=%d hits=%d misses=%d write_backs=%d evictions=%d ghost_hits=%d \
     lock_waits=%d"
    s.reads s.hits s.misses s.write_backs s.evictions s.ghost_hits s.lock_waits
