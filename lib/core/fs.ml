module Osd = Hfad_osd.Osd
module Oid = Hfad_osd.Oid
module Meta = Hfad_osd.Meta
module Pager = Hfad_pager.Pager
module Tag = Hfad_index.Tag
module Index_store = Hfad_index.Index_store
module Query = Hfad_index.Query
module Fulltext = Hfad_fulltext.Fulltext
module Rwlock = Hfad_util.Rwlock
module Trace = Hfad_trace.Trace
module Router = Hfad_shard.Router
module Device = Hfad_blockdev.Device
module Codec = Hfad_util.Codec
module Counter = Hfad_metrics.Counter
module Registry = Hfad_metrics.Registry
module Prefix_pool = Hfad_metrics.Prefix_pool

type index_mode = Eager | Lazy | Off

type error = Osd.error =
  | No_such_object of Oid.t
  | Cache_full of Pager.full_reason
  | Journal_full of { needed_blocks : int; have_blocks : int }
  | Recovery of Hfad_journal.Journal.reason
  | Out_of_space of { requested_blocks : int }
  | Io of string
  | Corrupt of string
  | Stopped
  | Txn_invalid of string

let pp_error = Osd.pp_error
let error_message = Osd.error_message

module Config = struct
  type t = {
    cache_pages : int;
    max_extent_pages : int;
    journal_pages : int;
    policy : Pager.policy;
    index_mode : index_mode;
    batch_max_pages : int;
    batch_max_age : float;
    sync_writes : bool;
    shards : int;
    placement_tag : Tag.t option;
  }

  let default =
    {
      cache_pages = 1024;
      max_extent_pages = 64;
      journal_pages = 0;
      policy = `Twoq;
      index_mode = Lazy;
      batch_max_pages = 256;
      batch_max_age = 0.010;
      sync_writes = false;
      shards = 1;
      placement_tag = Some Tag.User;
    }

  let v ?(cache_pages = default.cache_pages)
      ?(max_extent_pages = default.max_extent_pages)
      ?(journal_pages = default.journal_pages) ?(policy = default.policy)
      ?(index_mode = default.index_mode)
      ?(batch_max_pages = default.batch_max_pages)
      ?(batch_max_age = default.batch_max_age)
      ?(sync_writes = default.sync_writes) ?(shards = default.shards)
      ?(placement_tag = default.placement_tag) () =
    {
      cache_pages;
      max_extent_pages;
      journal_pages;
      policy;
      index_mode;
      batch_max_pages;
      batch_max_age;
      sync_writes;
      shards;
      placement_tag;
    }

  let osd t =
    {
      Osd.Config.cache_pages = t.cache_pages;
      max_extent_pages = t.max_extent_pages;
      journal_pages = t.journal_pages;
      policy = t.policy;
    }
end

(* --- the typed mutation vocabulary ---------------------------------------- *)

(* One value describes one mutation, whichever door it came through: the
   single-op entry points below commit a one-op plan, {!with_txn}
   stages many, and the wire server stages its verbs through
   {!with_txn}. All OIDs here are GLOBAL — the executor translates to
   the owning shard's local space when it applies the plan. *)
module Op = struct
  type t =
    | Create of {
        reserved : Oid.t;  (* from a shard's reserve_oid, via the router *)
        meta : Meta.t option;
        names : (Tag.t * string) list;
        content : string;
      }
    | Write of { oid : Oid.t; off : int; data : string }
    | Append of { oid : Oid.t; data : string }
    | Truncate of { oid : Oid.t; size : int }
    | Delete of { oid : Oid.t }
    | Name of { oid : Oid.t; tag : Tag.t; value : string }
    | Unname of { oid : Oid.t; tag : Tag.t; value : string }
    | Rename of { oid : Oid.t; tag : Tag.t; from_ : string; to_ : string }
    | Insert of { oid : Oid.t; off : int; data : string }
    | Remove_bytes of { oid : Oid.t; off : int; len : int }

  (* The object the op routes by — for Create, the reserved identity. *)
  let target = function
    | Create { reserved; _ } -> reserved
    | Write { oid; _ }
    | Append { oid; _ }
    | Truncate { oid; _ }
    | Insert { oid; _ }
    | Remove_bytes { oid; _ }
    | Delete { oid }
    | Name { oid; _ }
    | Unname { oid; _ }
    | Rename { oid; _ } ->
        oid
end

(* --- shard stacks -------------------------------------------------------- *)

(* Each shard is a fully independent storage stack: its own device
   window, pager, journal, lock and (optional) flusher daemon. The shard
   speaks LOCAL OIDs throughout — its OSD, index stores and journal are
   bit-for-bit the unsharded on-disk format — and this module translates
   at the API boundary via the {!Router}'s arithmetic encoding. *)

type shard_metrics = {
  m_ops : Counter.t;  (** operations routed to this shard *)
  m_acked : Counter.t;  (** gauge: pipeline mutations acknowledged *)
  m_durable : Counter.t;  (** gauge: pipeline mutations durable *)
  m_commits : Counter.t;  (** gauge: group commits issued *)
}

type shard = {
  sid : int;
  s_osd : Osd.t;
  s_index : Index_store.t;
  s_lock : Rwlock.t;  (* the shard OSD's lock, shared by its whole stack *)
  s_cap : int;  (* journal capacity in pages, fixed at open; 0 = none *)
  mutable s_flusher : Flusher.t option;
  sm : shard_metrics option;  (* only when the file system is sharded *)
}

type router_metrics = {
  m_targeted : Counter.t;  (** naming ops routed to a single shard *)
  m_scatter : Counter.t;  (** naming ops fanned out to every shard *)
}

(* --- snapshot state (copy-on-write read isolation) ------------------------ *)

(* Every mutation draws a global sequence number; {!snapshot} pins the
   number current at its creation. Before mutation [q] changes object
   [X], the state X had after mutation [q-1] is saved as a preimage
   stamped [q] — but only if some live snapshot still needs it (pins a
   sequence at or after X's newest saved preimage). A snapshot pinned at
   [s] then reads X as the saved preimage with the {e smallest} stamp
   [m > s] (exactly the state X had at time [s]), falling back to the
   live object when nothing has touched X since the pin. With no
   snapshot active the whole mechanism is one atomic increment. *)

type preimage_state =
  | Pre_absent  (* the object did not exist at the pinned time *)
  | Pre_present of {
      p_content : string;
      p_meta : Meta.t;
      p_names : (Tag.t * string) list;
    }

type preimage = { pm : int; pstate : preimage_state }

type snap_state = {
  mut_seq : int Atomic.t;  (* global mutation sequence *)
  snap_active : int Atomic.t;  (* live snapshots; 0 = fast path *)
  snap_mu : Mutex.t;  (* guards [pinned] and [pre] *)
  mutable pinned : int list;  (* pinned sequence numbers, one per snapshot *)
  pre : (Oid.t, preimage list) Hashtbl.t;  (* global OID -> newest-first *)
}

type t = {
  router : Router.t;
  shards : shard array;
  dev : Device.t;  (* the parent (whole) device *)
  config : Config.t;
  prefix : string option;  (* pooled "fs<k>" metrics prefix when sharded *)
  rm : router_metrics option;
  rr : int Atomic.t;  (* round-robin placement cursor *)
  snap : snap_state;
}

(* Locking discipline (§2.3 made concrete): per shard, naming and access
   reads hold the shared side of that shard's lock; every mutation holds
   its exclusive side. Shards never take each other's locks, so writers
   on different shards run truly in parallel — the single-writer ceiling
   of the unsharded stack becomes per-shard. The only multi-shard
   operations (sync, scatter queries) visit shards one at a time and
   never hold two locks at once, so there is no lock-order cycle. *)

let nshards t = Array.length t.shards
let shard0 t = t.shards.(0)
let sharded t = nshards t > 1
let shard_shared sh f = Rwlock.with_shared sh.s_lock f
let shard_exclusive sh f = Rwlock.with_exclusive sh.s_lock f

(* --- shard map block ----------------------------------------------------- *)

(* A sharded image reserves physical block 0 for the shard map — magic,
   layout version, shard count, region size — and gives each shard an
   equal Device.sub window after it. An unsharded image has no map
   block: block 0 is the OSD superblock, exactly the seed format, which
   is what keeps shards = 1 byte-identical and lets open_existing
   auto-detect which kind of image it was handed. *)

let shard_magic = "hFADSHRD"
let shard_map_version = 1

let write_shard_map dev ~shards ~region_blocks =
  let b = Bytes.make (Device.block_size dev) '\000' in
  Bytes.blit_string shard_magic 0 b 0 (String.length shard_magic);
  Codec.put_u32 b 8 shard_map_version;
  Codec.put_u32 b 12 shards;
  Codec.put_u32 b 16 region_blocks;
  Device.write_block dev 0 b

let read_shard_map dev =
  let b = Device.read_block dev 0 in
  if
    Bytes.length b < 20
    || Bytes.sub_string b 0 (String.length shard_magic) <> shard_magic
  then None
  else begin
    let version = Codec.get_u32 b 8 in
    let shards = Codec.get_u32 b 12 in
    let region_blocks = Codec.get_u32 b 16 in
    if version <> shard_map_version then
      failwith (Printf.sprintf "shard map: unknown version %d" version);
    if shards < 2 || shards > Router.max_shards then
      failwith (Printf.sprintf "shard map: implausible shard count %d" shards);
    if region_blocks < 1 || 1 + (shards * region_blocks) > Device.blocks dev
    then failwith "shard map: regions exceed the device";
    Some (shards, region_blocks)
  end

(* --- construction -------------------------------------------------------- *)

let counter name = Registry.counter Registry.global name

(* Transaction and snapshot health, process-wide like the fs.* spans. *)
let c_txn_commits = counter "fs.txn.commits"
let c_txn_ops = counter "fs.txn.ops"
let c_txn_rejected = counter "fs.txn.rejected"
let c_txn_rollbacks = counter "fs.txn.rollbacks"
let c_snap_captures = counter "fs.snapshot.captures"

let mk_shard ~prefix sid osd =
  let sm =
    Option.map
      (fun p ->
        let c s = counter (Printf.sprintf "%s.shard%d.%s" p sid s) in
        {
          m_ops = c "ops";
          m_acked = c "acked";
          m_durable = c "durable";
          m_commits = c "commits";
        })
      prefix
  in
  {
    sid;
    s_osd = osd;
    s_index = Index_store.create osd;
    s_lock = Osd.rwlock osd;
    s_cap = Osd.journal_capacity_pages osd;
    s_flusher = None;
    sm;
  }

let mk config dev osds =
  let n = Array.length osds in
  let prefix = if n > 1 then Some (Prefix_pool.acquire "fs") else None in
  let rm =
    Option.map
      (fun p ->
        {
          m_targeted = counter (p ^ ".router.targeted");
          m_scatter = counter (p ^ ".router.scatter");
        })
      prefix
  in
  {
    router = Router.create ~shards:n;
    shards = Array.mapi (fun i osd -> mk_shard ~prefix i osd) osds;
    dev;
    config = { config with Config.shards = n };
    prefix;
    rm;
    rr = Atomic.make 0;
    snap =
      {
        mut_seq = Atomic.make 0;
        snap_active = Atomic.make 0;
        snap_mu = Mutex.create ();
        pinned = [];
        pre = Hashtbl.create 64;
      };
  }

let region_window dev ~region_blocks s =
  Device.sub dev ~first_block:(1 + (s * region_blocks)) ~blocks:region_blocks

let format ?(config = Config.default) dev =
  let n = config.Config.shards in
  if n < 1 || n > Router.max_shards then
    invalid_arg
      (Printf.sprintf "Fs.format: shards %d outside [1, %d]" n
         Router.max_shards);
  if n = 1 then mk config dev [| Osd.format ~config:(Config.osd config) dev |]
  else begin
    let region_blocks = (Device.blocks dev - 1) / n in
    if region_blocks < 1 then
      invalid_arg
        (Printf.sprintf "Fs.format: device of %d blocks too small for %d shards"
           (Device.blocks dev) n);
    write_shard_map dev ~shards:n ~region_blocks;
    mk config dev
      (Array.init n (fun s ->
           Osd.format ~config:(Config.osd config)
             (region_window dev ~region_blocks s)))
  end

let open_existing_exn ?(config = Config.default) dev =
  match read_shard_map dev with
  | None ->
      mk config dev [| Osd.open_existing_exn ~config:(Config.osd config) dev |]
  | Some (n, region_blocks) ->
      mk config dev
        (Array.init n (fun s ->
             Osd.open_existing_exn ~config:(Config.osd config)
               (region_window dev ~region_blocks s)))

let open_existing ?config dev = Osd.guard (fun () -> open_existing_exn ?config dev)

let config t = t.config
let journaled t = Osd.journaled (shard0 t).s_osd
let device t = t.dev
let osd t = (shard0 t).s_osd
let index_mode t = t.config.Config.index_mode
let rwlock t = (shard0 t).s_lock
let shard_count t = nshards t
let metrics_prefix t = t.prefix
let shard_of_oid t oid = Router.shard_of_oid t.router oid
let osd_of_shard t s = t.shards.(s).s_osd
let index_of_shard t s = t.shards.(s).s_index

(* --- routing ------------------------------------------------------------- *)

let note_targeted t =
  match t.rm with Some m -> Counter.incr m.m_targeted | None -> ()

let note_scatter t =
  match t.rm with Some m -> Counter.incr m.m_scatter | None -> ()

let bump_ops sh = match sh.sm with Some m -> Counter.incr m.m_ops | None -> ()

(* OIDs in errors crossing the API are global; the shard stacks below
   only ever saw the local OID, so translate on the way out. *)
let with_global_oid t s f =
  try f ()
  with Osd.No_such_object l ->
    raise (Osd.No_such_object (Router.to_global t.router ~shard:s l))

(* The router span exists only on sharded stacks, so the unsharded span
   profile (experiment O1) is unchanged. *)
let span_route t sh f =
  if sharded t && Trace.enabled () then
    Trace.with_span ~layer:"shard" ~op:"route"
      ~attrs:[ ("shard", string_of_int sh.sid) ]
      f
  else f ()

(* Route a single-object operation to the shard that owns the OID. *)
let routed t oid f =
  let s = Router.shard_of_oid t.router oid in
  let sh = t.shards.(s) in
  bump_ops sh;
  note_targeted t;
  span_route t sh (fun () ->
      with_global_oid t s (fun () -> f sh (Router.to_local t.router oid)))

(* --- snapshot capture ------------------------------------------------------ *)

(* Lock order: a mutator holds its shard's exclusive lock, then takes
   [snap_mu] briefly; snapshot readers take [snap_mu] alone (never a
   shard lock under it), so there is no cycle. *)

let snap_record t ~global state =
  let sn = t.snap in
  Mutex.protect sn.snap_mu (fun () ->
      let q = Atomic.fetch_and_add sn.mut_seq 1 + 1 in
      let chain =
        Option.value ~default:[] (Hashtbl.find_opt sn.pre global)
      in
      let newest = match chain with { pm; _ } :: _ -> pm | [] -> -1 in
      if List.exists (fun s -> s >= newest) sn.pinned then begin
        Counter.incr c_snap_captures;
        Hashtbl.replace sn.pre global ({ pm = q; pstate = state () } :: chain)
      end)

(* Called at the head of every mutation, inside the owning shard's
   exclusive section, before anything changes. *)
let snap_note t sh ~global l =
  if Atomic.get t.snap.snap_active = 0 then
    ignore (Atomic.fetch_and_add t.snap.mut_seq 1)
  else
    snap_record t ~global (fun () ->
        if Osd.exists sh.s_osd l then
          Pre_present
            {
              p_content = Osd.read_all sh.s_osd l;
              p_meta = Osd.metadata sh.s_osd l;
              p_names = Index_store.values_of sh.s_index l;
            }
        else Pre_absent)

(* Smallest stamp > s in a newest-first chain: the fold keeps the last
   (oldest) qualifying entry. *)
let find_pre s chain =
  List.fold_left
    (fun acc p -> if p.pm > s then Some p.pstate else acc)
    None chain

(* --- content indexing ---------------------------------------------------- *)

(* A content mutation only marks its object (a durable mark: a key that
   seals with the mutation); {!Index_store.drain} reindexes it later
   from its current bytes. *)
let mark t sh l =
  if t.config.Config.index_mode <> Off then Index_store.mark_dirty sh.s_index l

let unfit sh = Index_store.unfit sh.s_index > 0

(* A shard with nothing to drain takes no exclusive lock. A document too
   large to index is reported once every shard has drained. *)
let drain_index t =
  Array.iter
    (fun sh ->
      if Index_store.pending sh.s_index > 0 then ignore (Index_store.drain sh.s_index))
    t.shards;
  if Array.exists unfit t.shards then raise (Pager.Cache_full Pager.Dirty_no_steal)

let index_backlog t =
  Array.fold_left (fun acc sh -> acc + Index_store.backlog sh.s_index) 0 t.shards

(* --- durability ---------------------------------------------------------- *)

(* The one seal of ONE shard: everything that shard's stack has mutated
   so far, durable marks included, becomes durable in a single journaled
   checkpoint under the exclusive side. It indexes nothing. Shards are
   independent durability domains: each has its own journal and its own
   daemon, and a global sync is simply every shard reaching its own
   durability point. *)
let seal sh = Osd.flush_exn sh.s_osd

(* [`Checkpoint]: drain, then seal, in one exclusive section. A document
   too large to index does not hold the seal back (nothing of it was
   written); it is reported after. *)
let checkpoint_shard sh =
  shard_exclusive sh (fun () ->
      ignore (Index_store.drain sh.s_index);
      seal sh);
  if unfit sh then raise (Pager.Cache_full Pager.Dirty_no_steal)

(* The pipeline daemon's background indexing (§3.4): once the shard's
   backlog holds a whole drain chunk, drain one chunk and seal it. A
   step that fails leaves its marks for the next step, a SEARCH or a
   checkpoint. *)
let drain_step sh () =
  Index_store.pending sh.s_index >= Index_store.drain_chunk
  && Result.is_ok
       (Osd.guard (fun () ->
            shard_exclusive sh (fun () ->
                ignore (Index_store.drain ~max_items:Index_store.drain_chunk sh.s_index);
                seal sh)))

let publish_shard_gauges sh =
  match (sh.sm, sh.s_flusher) with
  | Some m, Some fl ->
      let st = Flusher.stats fl in
      Counter.set m.m_acked st.Flusher.acked;
      Counter.set m.m_durable st.Flusher.durable;
      Counter.set m.m_commits st.Flusher.commits
  | _ -> ()

(* Called at the tail of every mutation, still inside the owning shard's
   exclusive section. Pipelined: acknowledge into that shard's daemon
   batch. [sync_writes]: seal the shard before the mutation even
   returns. Neither: durability waits for an explicit sync. *)
let note_write t sh =
  match sh.s_flusher with
  | Some fl when Flusher.running fl -> Flusher.note_mutation fl
  | _ -> if t.config.Config.sync_writes then seal sh

(* Every mutation runs its body through here: count it on shard [s],
   open the route span, report OIDs in errors globally, and hold the
   shard's exclusive side. [Eager] drains the index before that side is
   released, whether [f] returns or raises (a rolled-back plan leaves
   its undone objects marked), so content is searchable the moment the
   call returns. Only a completed mutation is acknowledged. *)
let in_shard t s f =
  let sh = t.shards.(s) in
  let eager_drain () =
    if t.config.Config.index_mode = Eager then
      ignore (Index_store.drain sh.s_index)
  in
  bump_ops sh;
  note_targeted t;
  span_route t sh (fun () ->
      with_global_oid t s (fun () ->
          shard_exclusive sh (fun () ->
              match f sh with
              | v ->
                  eager_drain ();
                  note_write t sh;
                  v
              | exception e ->
                  eager_drain ();
                  raise e)))

(* --- the shared mutation executor ----------------------------------------- *)

(* One implementation applies an {!Op.t}, whether it is a single
   mutation or one step of a longer plan. Caller holds the owning
   shard's exclusive lock. Each arm runs its own checks, then — before
   it changes anything — hands [keep] a thunk that reads the state
   reversing the op and returns the undo. {!commit} runs those thunks
   only for plans of two or more ops; a one-op plan passes [ignore], so
   it reads nothing. An op that fails after handing over its thunk is
   undone too, so its undo must cope with it half applied. An op that
   changes bytes marks its object before it changes them: a mark left
   by an op that then fails costs one reindex, where a missing one
   would leave the index stale. The result is whether an
   [Unname]/[Rename] removed the old name (the [unname] API's boolean);
   other ops report [false]. *)
let apply_op t sh ~keep op =
  let g = Op.target op in
  let l = Router.to_local t.router g in
  snap_note t sh ~global:g l;
  match op with
  | Op.Create { meta; names; content; _ } ->
      List.iter (fun (tag, v) -> Index_store.check sh.s_index tag v) names;
      keep (fun () () ->
          if Osd.exists sh.s_osd l then begin
            Index_store.drop_object sh.s_index l;
            Osd.delete_object sh.s_osd l
          end);
      ignore (Osd.create_object ?meta ~oid:l sh.s_osd);
      List.iter (fun (tag, value) -> Index_store.add sh.s_index l tag value) names;
      if content <> "" then begin
        mark t sh l;
        Osd.write sh.s_osd l ~off:0 content
      end;
      false
  | Op.Write { off; data; _ } ->
      keep (fun () ->
          let old_size = Osd.size sh.s_osd l in
          let overlap =
            if off < old_size then
              Osd.read sh.s_osd l ~off
                ~len:(min (String.length data) (old_size - off))
            else ""
          in
          fun () ->
            Osd.truncate sh.s_osd l old_size;
            if overlap <> "" then Osd.write sh.s_osd l ~off overlap);
      mark t sh l;
      Osd.write sh.s_osd l ~off data;
      false
  | Op.Append { data; _ } ->
      keep (fun () ->
          let old_size = Osd.size sh.s_osd l in
          fun () -> Osd.truncate sh.s_osd l old_size);
      mark t sh l;
      Osd.append sh.s_osd l data;
      false
  | Op.Truncate { size; _ } ->
      keep (fun () ->
          let old_size = Osd.size sh.s_osd l in
          let tail =
            if size < old_size then
              Osd.read sh.s_osd l ~off:size ~len:(old_size - size)
            else ""
          in
          fun () ->
            Osd.truncate sh.s_osd l old_size;
            if tail <> "" then Osd.write sh.s_osd l ~off:size tail);
      mark t sh l;
      Osd.truncate sh.s_osd l size;
      false
  | Op.Insert { off; data; _ } ->
      (* Past the end, an insert zero-fills up to [off] first. *)
      keep (fun () ->
          let old_size = Osd.size sh.s_osd l in
          fun () ->
            if off < old_size then
              Osd.remove_bytes sh.s_osd l ~off ~len:(String.length data)
            else Osd.truncate sh.s_osd l old_size);
      mark t sh l;
      Osd.insert sh.s_osd l ~off data;
      false
  | Op.Remove_bytes { off; len; _ } ->
      (* Removal clamps at the end, and inserting nothing past the end
         would zero-fill up to [off]. *)
      keep (fun () ->
          let removed = Osd.read sh.s_osd l ~off ~len in
          fun () -> if removed <> "" then Osd.insert sh.s_osd l ~off removed);
      mark t sh l;
      Osd.remove_bytes sh.s_osd l ~off ~len;
      false
  | Op.Delete _ ->
      keep (fun () ->
          let content = Osd.read_all sh.s_osd l in
          let meta = Osd.metadata sh.s_osd l in
          let names = Index_store.values_of sh.s_index l in
          fun () ->
            let gone = not (Osd.exists sh.s_osd l) in
            if gone then ignore (Osd.create_object ~meta ~oid:l sh.s_osd);
            List.iter
              (fun (tag, value) -> Index_store.add sh.s_index l tag value)
              names;
            if gone && content <> "" then Osd.write sh.s_osd l ~off:0 content;
            mark t sh l);
      Index_store.drop_object sh.s_index l;
      Osd.delete_object sh.s_osd l;
      false
  | Op.Name { tag; value; _ } ->
      if not (Osd.exists sh.s_osd l) then raise (Osd.No_such_object l);
      Index_store.check sh.s_index tag value;
      keep (fun () ->
          let had = Index_store.contains sh.s_index l (tag, value) in
          fun () ->
            if not had then ignore (Index_store.remove sh.s_index l tag value));
      Index_store.add sh.s_index l tag value;
      false
  | Op.Unname { tag; value; _ } ->
      Index_store.check sh.s_index tag value;
      keep (fun () ->
          let had = Index_store.contains sh.s_index l (tag, value) in
          fun () -> if had then Index_store.add sh.s_index l tag value);
      Index_store.remove sh.s_index l tag value
  | Op.Rename { tag; from_; to_; _ } ->
      if not (Osd.exists sh.s_osd l) then raise (Osd.No_such_object l);
      Index_store.check sh.s_index tag to_;
      keep (fun () ->
          let had_from = Index_store.contains sh.s_index l (tag, from_) in
          let had_to = Index_store.contains sh.s_index l (tag, to_) in
          fun () ->
            if not had_to then ignore (Index_store.remove sh.s_index l tag to_);
            if had_from then Index_store.add sh.s_index l tag from_);
      let was = Index_store.remove sh.s_index l tag from_ in
      Index_store.add sh.s_index l tag to_;
      was

let barrier_shard sh =
  match sh.s_flusher with
  | Some fl when Flusher.running fl -> Flusher.barrier fl
  | _ -> Osd.guard (fun () -> seal sh)

(* The one durability entry point. A sync makes every shard durable: it
   visits shards in order, reports the first failure but still syncs
   the rest — one sick shard must not leave the others' acknowledged
   writes hanging. Only a checkpoint drains. *)
let sync ?(mode = `Barrier) t =
  let sync_shard =
    match mode with
    | `Checkpoint -> fun sh -> Osd.guard (fun () -> checkpoint_shard sh)
    | `Barrier -> barrier_shard
  in
  let r =
    Array.fold_left
      (fun acc sh ->
        match sync_shard sh with
        | Ok () -> acc
        | Error _ as e -> ( match acc with Ok () -> e | _ -> acc))
      (Ok ()) t.shards
  in
  Array.iter publish_shard_gauges t.shards;
  r

let sync_exn ?(mode = `Barrier) t =
  match sync ~mode t with Ok () -> () | Error e -> Osd.raise_error e

let start_pipeline t =
  if not t.config.Config.sync_writes then
    Array.iter
      (fun sh ->
        let fl =
          match sh.s_flusher with
          | Some fl -> fl
          | None ->
              let fl =
                Flusher.create
                  ~batch_max_pages:t.config.Config.batch_max_pages
                  ~batch_max_age:t.config.Config.batch_max_age
                  ~step:(drain_step sh)
                  ~dirty_count:(fun () -> Pager.dirty_count (Osd.pager sh.s_osd))
                  ~commit:(fun () -> Osd.guard (fun () -> seal sh))
                  ()
              in
              sh.s_flusher <- Some fl;
              fl
        in
        Flusher.start fl)
      t.shards

let stop_pipeline t =
  Array.iter
    (fun sh -> match sh.s_flusher with None -> () | Some fl -> Flusher.stop fl)
    t.shards;
  Array.iter publish_shard_gauges t.shards

let pipeline_running t =
  Array.exists
    (fun sh ->
      match sh.s_flusher with Some fl -> Flusher.running fl | None -> false)
    t.shards

let pipeline_stats t =
  Array.fold_left
    (fun acc sh ->
      match Option.map Flusher.stats sh.s_flusher with
      | None -> acc
      | Some s -> (
          match acc with
          | None -> Some s
          | Some a ->
              Some
                {
                  Flusher.acked = a.Flusher.acked + s.Flusher.acked;
                  durable = a.Flusher.durable + s.Flusher.durable;
                  commits = a.Flusher.commits + s.Flusher.commits;
                }))
    None t.shards

let shard_pipeline_stats t s = Option.map Flusher.stats t.shards.(s).s_flusher

let close t =
  stop_pipeline t;
  Array.iter (fun sh -> Osd.close sh.s_osd) t.shards;
  match t.prefix with Some p -> Prefix_pool.release p | None -> ()

(* --- lifecycle ----------------------------------------------------------- *)

let traced op f =
  if Trace.enabled () then Trace.with_span ~layer:"fs" ~op f else f ()

(* Placement of a NEW object: hash the placement-tag value when the
   caller supplied one (tenant affinity — all of margo's objects land
   together), round-robin otherwise. Affinity is a hint, never a
   promise: queries scatter unless an Id pins them, so a name attached
   later (or a re-placed tenant) is still found. *)
let place t names =
  if not (sharded t) then 0
  else
    let by_tag =
      match t.config.Config.placement_tag with
      | None -> None
      | Some ptag ->
          List.find_map
            (fun (tag, v) ->
              if Tag.equal tag ptag then Some (Router.shard_of_key t.router v)
              else None)
            names
    in
    match by_tag with
    | Some s -> s
    | None ->
        let n = nshards t in
        (((Atomic.fetch_and_add t.rr 1) mod n) + n) mod n

(* --- plans and transactions ---------------------------------------------- *)

(* Every mutation is a plan: a single operation commits as a one-op
   plan, and a transaction stages many. {!commit} runs a plan inside
   ONE exclusive section on the owning shard. Under NO-STEAL/FORCE that
   is all the machinery atomicity needs: nothing the plan does reaches
   the device until the next checkpoint, and a checkpoint seals the
   whole dirty set as one CRC-chained journal commit — so a crash lands
   the plan wholly in or wholly out. The commit still guards the two
   ways that argument can leak:

   - plans spanning shards would need two journals to agree (2PC); they
     are rejected at staging time instead;
   - a plan whose estimated dirty set cannot fit the journal in one
     commit is refused, and a shard already carrying enough dirty pages
     to pass one journal commit or its dirty budget ({!Osd.dirty_budget},
     half the cache) alongside the plan is sealed first, so the plan
     neither has its own checkpoint phase-split nor fills the NO-STEAL
     cache part-way. *)

type txn = {
  tx_fs : t;
  mutable tx_ops : Op.t list;  (* reversed staging order *)
  mutable tx_shard : int option;  (* pinned by the first staged op *)
  mutable tx_open : bool;
}

let reject fmt =
  Printf.ksprintf
    (fun msg ->
      Counter.incr c_txn_rejected;
      raise (Osd.Txn_rejected msg))
    fmt

(* Pre-validate the whole plan against a simulated object space — every
   violation is raised BEFORE anything is applied, so a rejected plan
   leaves no trace. *)
let validate_ops t sh ops =
  let created = Hashtbl.create 8 and deleted = Hashtbl.create 8 in
  let exists_sim g =
    if Hashtbl.mem deleted g then false
    else
      Hashtbl.mem created g || Osd.exists sh.s_osd (Router.to_local t.router g)
  in
  let require g what =
    if not (exists_sim g) then
      reject "%s: no such object %s" what (Oid.to_string g)
  in
  List.iter
    (fun op ->
      match op with
      | Op.Create { reserved; _ } ->
          if exists_sim reserved then
            reject "create: oid %s already live" (Oid.to_string reserved);
          Hashtbl.replace created reserved ();
          Hashtbl.remove deleted reserved
      | Op.Write { oid; off; _ } ->
          if off < 0 then reject "write: negative offset %d" off;
          require oid "write"
      | Op.Append { oid; _ } -> require oid "append"
      | Op.Truncate { oid; size } ->
          if size < 0 then reject "truncate: negative size %d" size;
          require oid "truncate"
      | Op.Insert { oid; off; _ } ->
          if off < 0 then reject "insert: negative offset %d" off;
          require oid "insert"
      | Op.Remove_bytes { oid; off; len } ->
          if off < 0 || len < 0 then
            reject "remove_bytes: negative range %d+%d" off len;
          require oid "remove_bytes"
      | Op.Delete { oid } ->
          require oid "delete";
          Hashtbl.replace deleted oid ()
      | Op.Name { oid; _ } -> require oid "name"
      | Op.Unname { oid; _ } -> require oid "unname"
      | Op.Rename { oid; _ } -> require oid "rename")
    ops

(* Does the op change an object's bytes, and so mark it? *)
let marks = function
  | Op.Create { content; _ } -> content <> ""
  | Op.Write _ | Op.Append _ | Op.Truncate _ | Op.Insert _ | Op.Remove_bytes _ -> true
  | Op.Delete _ | Op.Name _ | Op.Unname _ | Op.Rename _ -> false

(* Rough upper bound on the pages a plan dirties — data pages plus a
   fixed allowance per op for B-tree, master and index churn, and the
   leaf of the plan's durable marks. Heuristic: it sizes the pre-seal
   decision and refuses plans that could never seal in one chain; it is
   not a guarantee. *)
let estimate_pages t ops =
  let bs = Device.block_size t.dev in
  let data_pages n = ((n + bs - 1) / bs) + 1 in
  let mark_page =
    if t.config.Config.index_mode <> Off && List.exists marks ops then 1 else 0
  in
  List.fold_left
    (fun acc op ->
      acc
      +
      match op with
      | Op.Create { content; _ } -> 6 + data_pages (String.length content)
      | Op.Write { data; _ } | Op.Append { data; _ } ->
          4 + data_pages (String.length data)
      | Op.Insert { data; _ } -> 6 + data_pages (String.length data)
      | Op.Truncate _ -> 4
      | Op.Remove_bytes _ -> 6
      | Op.Delete _ -> 8
      | Op.Name _ | Op.Unname _ -> 4
      | Op.Rename _ -> 6)
    (4 + mark_page) ops

(* Commit a non-empty plan on the shard of its first op and return what
   its last op reports. A plan of two or more ops is validated first,
   and captures each op's undo before applying it, so a failure
   mid-plan (cache full, allocator exhausted), also part-way through
   one op, unwinds every op applied — invisibly to the device, since
   the exclusive section keeps checkpoints out. A one-op plan skips
   both (see {!apply_op}). *)
let commit t ops =
  let s = Router.shard_of_oid t.router (Op.target (List.hd ops)) in
  in_shard t s @@ fun sh ->
  let multi = match ops with [ _ ] -> false | _ -> true in
  if multi then validate_ops t sh ops;
  let cap = sh.s_cap in
  if cap > 0 then begin
    let est = estimate_pages t ops in
    if est > cap then
      reject "plan of %d ops (~%d pages) exceeds journal capacity (%d pages)"
        (List.length ops) est cap;
    if Pager.dirty_count (Osd.pager sh.s_osd) + est > min cap (Osd.dirty_budget sh.s_osd)
    then
      (* Seal what's already pending, in the writer's thread, so the
         plan applies into a cache with room for it and its own commit
         gets a sealed chain to itself. *)
      seal sh
  end;
  let undos = ref [] in
  let keep =
    if multi then fun capture -> undos := capture () :: !undos else ignore
  in
  try
    List.fold_left
      (fun _ op ->
        let removed = apply_op t sh ~keep op in
        Osd.note_op sh.s_osd;
        removed)
      false ops
  with e when multi ->
    Counter.incr c_txn_rollbacks;
    List.iter (fun undo -> undo ()) !undos;
    raise e

(* A single mutation: a one-op plan. *)
let exec t op = Osd.guard (fun () -> commit t [ op ])

(* Place a new object and claim its OID — on the shard a plan already
   [pinned], if any. {!create} and {!Txn.create} both start here. *)
let reserve t ?pinned names =
  let s = match pinned with Some s -> s | None -> place t names in
  Router.to_global t.router ~shard:s (Osd.reserve_oid t.shards.(s).s_osd)

let create ?meta ?(names = []) ?(content = "") t =
  traced "create" @@ fun () ->
  Osd.guard (fun () ->
      let reserved = reserve t names in
      ignore (commit t [ Op.Create { reserved; meta; names; content } ]);
      reserved)

let delete t oid =
  traced "delete" @@ fun () -> Result.map ignore (exec t (Op.Delete { oid }))

module Txn = struct
  let check tx =
    if not tx.tx_open then
      invalid_arg "Fs.Txn: transaction already committed or aborted"

  let ops tx = List.rev tx.tx_ops

  let stage tx op =
    check tx;
    let t = tx.tx_fs in
    let s = Router.shard_of_oid t.router (Op.target op) in
    (match tx.tx_shard with
    | None -> tx.tx_shard <- Some s
    | Some s0 when s0 = s -> ()
    | Some s0 ->
        reject "cross-shard transaction: op targets shard %d, plan pinned to %d"
          s s0);
    tx.tx_ops <- op :: tx.tx_ops

  let create ?meta ?(names = []) ?(content = "") tx =
    check tx;
    let reserved = reserve tx.tx_fs ?pinned:tx.tx_shard names in
    stage tx (Op.Create { reserved; meta; names; content });
    reserved

  let write tx oid ~off data = stage tx (Op.Write { oid; off; data })
  let append tx oid data = stage tx (Op.Append { oid; data })
  let truncate tx oid size = stage tx (Op.Truncate { oid; size })
  let delete tx oid = stage tx (Op.Delete { oid })
  let name tx oid tag value = stage tx (Op.Name { oid; tag; value })
  let unname tx oid tag value = stage tx (Op.Unname { oid; tag; value })

  let rename tx oid tag ~from_ ~to_ =
    stage tx (Op.Rename { oid; tag; from_; to_ })
end

let with_txn t f =
  traced "txn" @@ fun () ->
  Osd.guard (fun () ->
      let tx = { tx_fs = t; tx_ops = []; tx_shard = None; tx_open = true } in
      let v =
        match f tx with
        | v ->
            tx.tx_open <- false;
            v
        | exception e ->
            tx.tx_open <- false;
            raise e
      in
      (match Txn.ops tx with
      | [] -> ()
      | ops ->
          ignore (commit t ops);
          Counter.incr c_txn_commits;
          Counter.add c_txn_ops (List.length ops));
      v)

let with_txn_exn t f =
  match with_txn t f with Ok v -> v | Error e -> Osd.raise_error e

let exists t oid = routed t oid (fun sh l -> Osd.exists sh.s_osd l)

let object_count t =
  Array.fold_left (fun acc sh -> acc + Osd.object_count sh.s_osd) 0 t.shards

let objects t =
  Router.merge_sorted ~cmp:Oid.compare
    (List.init (nshards t) (fun s ->
         List.map
           (Router.to_global t.router ~shard:s)
           (Osd.list_objects t.shards.(s).s_osd)))

(* --- naming ----------------------------------------------------------------- *)

let name t oid tag value =
  traced "name" @@ fun () ->
  Result.map ignore (exec t (Op.Name { oid; tag; value }))

let unname t oid tag value =
  traced "unname" @@ fun () -> exec t (Op.Unname { oid; tag; value })

let rename t oid tag ~from_ ~to_ =
  traced "rename" @@ fun () -> exec t (Op.Rename { oid; tag; from_; to_ })

let names_of t oid = routed t oid (fun sh l -> Index_store.values_of sh.s_index l)

(* An Id pair names its shard exactly. Translating it for shard [s]:
   the owner's local OID on the owner, an OID no object can have ("0" —
   locals start at 1) anywhere else. The never-match form keeps
   rewritten queries correct in ANY position, including under [Not]:
   objects on non-owner shards do not carry that identity, so
   [Not (Id g)] must match all of them — and Not(never) does. *)
let local_id_value t s v =
  match Oid.of_string v with
  | Some g when Router.shard_of_oid t.router g = s ->
      Oid.to_string (Router.to_local t.router g)
  | Some _ | None -> "0"

let lookup t pairs =
  traced "lookup" @@ fun () ->
  if not (sharded t) then Index_store.query (shard0 t).s_index pairs
  else begin
    let run_on s =
      let sh = t.shards.(s) in
      bump_ops sh;
      let pairs =
        List.map
          (fun (tag, v) ->
            if Tag.equal tag Tag.Id then (tag, local_id_value t s v)
            else (tag, v))
          pairs
      in
      List.map
        (Router.to_global t.router ~shard:s)
        (Index_store.query sh.s_index pairs)
    in
    (* A conjunction containing an Id pair can only match that one
       object, so it routes to a single shard. *)
    match
      List.find_map
        (fun (tag, v) ->
          if Tag.equal tag Tag.Id then Some (Oid.of_string v) else None)
        pairs
    with
    | Some None -> [] (* malformed Id value: matches nothing anywhere *)
    | Some (Some g) ->
        note_targeted t;
        run_on (Router.shard_of_oid t.router g)
    | None ->
        note_scatter t;
        Router.merge_sorted ~cmp:Oid.compare
          (List.init (nshards t) run_on)
  end

let lookup_one t pairs =
  match lookup t pairs with [] -> None | oid :: _ -> Some oid

(* Rewrite a boolean query for one shard: Id values translated as in
   {!local_id_value}; every other pair is shard-agnostic. *)
let rec rewrite_query t s q =
  match q with
  | Query.Pair (tag, v) when Tag.equal tag Tag.Id ->
      Query.Pair (tag, local_id_value t s v)
  | Query.Pair _ -> q
  | Query.And l -> Query.And (List.map (rewrite_query t s) l)
  | Query.Or l -> Query.Or (List.map (rewrite_query t s) l)
  | Query.Not q -> Query.Not (rewrite_query t s q)

(* A positive Id conjunct bounds the whole query to one object, hence
   one shard. Only And spines count: an Id under Or or Not bounds
   nothing. *)
let rec id_target t q =
  match q with
  | Query.Pair (tag, v) when Tag.equal tag Tag.Id ->
      Option.map (Router.shard_of_oid t.router) (Oid.of_string v)
  | Query.And l -> List.find_map (id_target t) l
  | Query.Pair _ | Query.Or _ | Query.Not _ -> None

(* The shards a query visits, each with the query rewritten for it: the
   owner of a positive Id conjunct alone, or else every shard. *)
let query_shards t q =
  if not (sharded t) then [ (0, q) ]
  else
    let on s = (s, rewrite_query t s q) in
    match id_target t q with
    | Some s -> [ on s ]
    | None -> List.init (nshards t) on

let query t q =
  traced "query" @@ fun () ->
  if not (sharded t) then
    let sh = shard0 t in
    shard_shared sh (fun () -> Query.eval sh.s_index q)
  else begin
    let eval_on (s, q) =
      let sh = t.shards.(s) in
      bump_ops sh;
      shard_shared sh (fun () ->
          List.map (Router.to_global t.router ~shard:s) (Query.eval sh.s_index q))
    in
    (* A sharded Fs has at least two shards, so one visit is a target. *)
    match query_shards t q with
    | [ one ] ->
        note_targeted t;
        eval_on one
    | all ->
        note_scatter t;
        Router.merge_sorted ~cmp:Oid.compare (List.map eval_on all)
  end

let explain t q =
  List.map
    (fun (s, q) ->
      let sh = t.shards.(s) in
      (s, shard_shared sh (fun () -> Query.explain sh.s_index q)))
    (query_shards t q)

let query_string t s = query t (Query.of_string s)

let search t query =
  traced "search" @@ fun () ->
  if not (sharded t) then
    let sh = shard0 t in
    shard_shared sh (fun () ->
        Fulltext.search_text (Index_store.fulltext sh.s_index) query)
  else begin
    note_scatter t;
    Router.merge_ranked
      (List.init (nshards t) (fun s ->
           let sh = t.shards.(s) in
           bump_ops sh;
           shard_shared sh (fun () ->
               List.map
                 (fun (l, score) ->
                   (Router.to_global t.router ~shard:s l, score))
                 (Fulltext.search_text (Index_store.fulltext sh.s_index) query))))
  end

let list_names t tag ~prefix =
  if not (sharded t) then Index_store.lookup_prefix (shard0 t).s_index tag prefix
  else begin
    note_scatter t;
    let cmp (v1, o1) (v2, o2) =
      match String.compare v1 v2 with 0 -> Oid.compare o1 o2 | c -> c
    in
    Router.merge_sorted ~cmp
      (List.init (nshards t) (fun s ->
           let sh = t.shards.(s) in
           bump_ops sh;
           List.map
             (fun (v, l) -> (v, Router.to_global t.router ~shard:s l))
             (Index_store.lookup_prefix sh.s_index tag prefix)))
  end

(* --- access -------------------------------------------------------------------- *)

let read t oid ~off ~len =
  traced "read" @@ fun () -> routed t oid (fun sh l -> Osd.read sh.s_osd l ~off ~len)

let read_all t oid =
  traced "read" @@ fun () -> routed t oid (fun sh l -> Osd.read_all sh.s_osd l)

let write t oid ~off data =
  traced "write" @@ fun () ->
  Result.map ignore (exec t (Op.Write { oid; off; data }))

let append t oid data =
  traced "append" @@ fun () ->
  Result.map ignore (exec t (Op.Append { oid; data }))

let insert t oid ~off data =
  Result.map ignore (exec t (Op.Insert { oid; off; data }))

let remove_bytes t oid ~off ~len =
  Result.map ignore (exec t (Op.Remove_bytes { oid; off; len }))

let truncate t oid size = Result.map ignore (exec t (Op.Truncate { oid; size }))
let size t oid = routed t oid (fun sh l -> Osd.size sh.s_osd l)
let metadata t oid = routed t oid (fun sh l -> Osd.metadata sh.s_osd l)

(* Compaction changes no logical state, so it is no plan: a maintenance
   call in the owning shard's section, counted into the next seal. *)
let compact t oid =
  Osd.guard (fun () ->
      in_shard t (Router.shard_of_oid t.router oid) (fun sh ->
          Osd.compact sh.s_osd (Router.to_local t.router oid);
          Osd.note_op sh.s_osd))

let extent_count t oid = routed t oid (fun sh l -> Osd.extent_count sh.s_osd l)

(* --- snapshots -------------------------------------------------------------- *)

module Snapshot = struct
  type snap = { sfs : t; spin : int; mutable live : bool }

  let seq s = s.spin

  let saved s oid =
    let sn = s.sfs.snap in
    Mutex.protect sn.snap_mu (fun () ->
        match Hashtbl.find_opt sn.pre oid with
        | None -> None
        | Some chain -> find_pre s.spin chain)

  let check s =
    if not s.live then invalid_arg "Fs.Snapshot: snapshot already released"

  (* Optimistic read: consult the saved preimages, read the live object
     without any lock ordering hazard, then re-check — a mutation that
     raced the live read must have captured a preimage first (it pins at
     or after everything we could have seen), and that preimage is then
     authoritative, so a torn live read is always discarded. *)
  let state s oid =
    check s;
    match saved s oid with
    | Some st -> st
    | None -> (
        let live =
          routed s.sfs oid (fun sh l ->
              if Osd.exists sh.s_osd l then
                Some
                  ( Osd.read_all sh.s_osd l,
                    Osd.metadata sh.s_osd l,
                    Index_store.values_of sh.s_index l )
              else None)
        in
        match saved s oid with
        | Some st -> st
        | None -> (
            match live with
            | Some (p_content, p_meta, p_names) ->
                Pre_present { p_content; p_meta; p_names }
            | None -> Pre_absent))

  let exists s oid = match state s oid with Pre_absent -> false | _ -> true

  let read_all s oid =
    match state s oid with
    | Pre_absent -> raise (Osd.No_such_object oid)
    | Pre_present { p_content; _ } -> p_content

  let read s oid ~off ~len =
    if off < 0 || len < 0 then invalid_arg "Fs.Snapshot.read";
    let c = read_all s oid in
    let n = String.length c in
    if off >= n then "" else String.sub c off (min len (n - off))

  let size s oid = String.length (read_all s oid)

  let metadata s oid =
    match state s oid with
    | Pre_absent -> raise (Osd.No_such_object oid)
    | Pre_present { p_meta; _ } -> p_meta

  let names_of s oid =
    match state s oid with
    | Pre_absent -> raise (Osd.No_such_object oid)
    | Pre_present { p_names; _ } -> p_names

  let rec remove_one x = function
    | [] -> []
    | y :: tl -> if y = x then tl else y :: remove_one x tl

  let release s =
    if s.live then begin
      s.live <- false;
      let sn = s.sfs.snap in
      Mutex.protect sn.snap_mu (fun () ->
          sn.pinned <- remove_one s.spin sn.pinned;
          ignore (Atomic.fetch_and_add sn.snap_active (-1));
          (* Drop every preimage no remaining snapshot can ask for: an
             entry stamped at or before the oldest pin serves nobody. *)
          match sn.pinned with
          | [] -> Hashtbl.reset sn.pre
          | pins ->
              let min_pin = List.fold_left min max_int pins in
              Hashtbl.filter_map_inplace
                (fun _ chain ->
                  match List.filter (fun p -> p.pm > min_pin) chain with
                  | [] -> None
                  | c -> Some c)
                sn.pre)
    end
end

let snapshot t =
  let sn = t.snap in
  (* Raise the active count before pinning: every mutation that draws
     its sequence number after this sees the snapshot and captures. *)
  ignore (Atomic.fetch_and_add sn.snap_active 1);
  Mutex.protect sn.snap_mu (fun () ->
      let s = { Snapshot.sfs = t; spin = Atomic.get sn.mut_seq; live = true } in
      sn.pinned <- s.Snapshot.spin :: sn.pinned;
      s)

let with_snapshot t f =
  let s = snapshot t in
  Fun.protect ~finally:(fun () -> Snapshot.release s) (fun () -> f s)

(* --- _exn conveniences ---------------------------------------------------- *)

let get = function Ok v -> v | Error e -> Osd.raise_error e
let create_exn ?meta ?names ?content t = get (create ?meta ?names ?content t)
let delete_exn t oid = get (delete t oid)
let name_exn t oid tag value = get (name t oid tag value)
let unname_exn t oid tag value = get (unname t oid tag value)
let rename_exn t oid tag ~from_ ~to_ = get (rename t oid tag ~from_ ~to_)
let write_exn t oid ~off data = get (write t oid ~off data)
let append_exn t oid data = get (append t oid data)
let insert_exn t oid ~off data = get (insert t oid ~off data)
let remove_bytes_exn t oid ~off ~len = get (remove_bytes t oid ~off ~len)
let truncate_exn t oid size = get (truncate t oid size)
let compact_exn t oid = get (compact t oid)

let verify t =
  Array.iter
    (fun sh ->
      shard_shared sh (fun () ->
          Osd.verify sh.s_osd;
          Index_store.verify sh.s_index))
    t.shards
