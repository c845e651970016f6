module Device = Hfad_blockdev.Device
module Pager = Hfad_pager.Pager
module Buddy = Hfad_alloc.Buddy
module Btree = Hfad_btree.Btree
module Codec = Hfad_util.Codec
module Counter = Hfad_metrics.Counter
module Registry = Hfad_metrics.Registry
module Journal = Hfad_journal.Journal
module Rwlock = Hfad_util.Rwlock
module Trace = Hfad_trace.Trace

exception No_such_object of Oid.t
exception Recovery_failed of Journal.reason
exception Txn_rejected of string

(* --- typed errors ------------------------------------------------------ *)

type error =
  | No_such_object of Oid.t
  | Cache_full of Pager.full_reason
  | Journal_full of { needed_blocks : int; have_blocks : int }
  | Recovery of Journal.reason
  | Out_of_space of { requested_blocks : int }
  | Io of string
  | Corrupt of string
  | Stopped
  | Txn_invalid of string

let pp_error fmt (e : error) =
  match e with
  | No_such_object oid -> Format.fprintf fmt "no such object %a" Oid.pp oid
  | Cache_full Pager.All_pinned ->
      Format.pp_print_string fmt "cache full: every frame pinned"
  | Cache_full Pager.Dirty_no_steal ->
      Format.pp_print_string fmt
        "cache full: dirty set outgrew the cache (checkpoint needed)"
  | Journal_full { needed_blocks; have_blocks } ->
      Format.fprintf fmt "journal full: batch needs %d blocks, region has %d"
        needed_blocks have_blocks
  | Recovery reason ->
      Format.fprintf fmt "journal recovery failed: %a" Journal.pp_reason reason
  | Out_of_space { requested_blocks } ->
      Format.fprintf fmt "out of space: no free run of %d blocks"
        requested_blocks
  | Io msg -> Format.fprintf fmt "device error: %s" msg
  | Corrupt msg -> Format.fprintf fmt "corrupt: %s" msg
  | Stopped -> Format.pp_print_string fmt "write pipeline stopped"
  | Txn_invalid msg -> Format.fprintf fmt "transaction rejected: %s" msg

let error_message e = Format.asprintf "%a" pp_error e

(* [guard]/[raise_error] are exact inverses over the stack's exception
   surface, so [_exn] wrappers lose nothing: the same exception comes
   back out. Programming errors (Invalid_argument, Assert_failure) pass
   through untouched — a result type is for environmental failure, not
   for API misuse. *)
let guard (f : unit -> 'a) : ('a, error) result =
  match f () with
  | v -> Ok v
  | exception No_such_object oid -> Error (No_such_object oid)
  | exception Pager.Cache_full reason -> Error (Cache_full reason)
  | exception Journal.Journal_full { needed_blocks; have_blocks } ->
      Error (Journal_full { needed_blocks; have_blocks })
  | exception Recovery_failed reason -> Error (Recovery reason)
  | exception Buddy.Out_of_space { requested_blocks } ->
      Error (Out_of_space { requested_blocks })
  | exception Device.Io_error msg -> Error (Io msg)
  | exception Txn_rejected msg -> Error (Txn_invalid msg)
  | exception Failure msg -> Error (Corrupt msg)

let raise_error (e : error) : 'a =
  match e with
  | No_such_object oid -> raise (No_such_object oid)
  | Cache_full reason -> raise (Pager.Cache_full reason)
  | Journal_full { needed_blocks; have_blocks } ->
      raise (Journal.Journal_full { needed_blocks; have_blocks })
  | Recovery reason -> raise (Recovery_failed reason)
  | Out_of_space { requested_blocks } ->
      raise (Buddy.Out_of_space { requested_blocks })
  | Io msg -> raise (Device.Io_error msg)
  | Corrupt msg -> failwith msg
  | Stopped -> failwith "write pipeline stopped"
  | Txn_invalid msg -> raise (Txn_rejected msg)

(* --- configuration ----------------------------------------------------- *)

module Config = struct
  type t = {
    cache_pages : int;
    max_extent_pages : int;
    journal_pages : int;
    policy : Pager.policy;
  }

  let default =
    {
      cache_pages = 1024;
      max_extent_pages = 64;
      journal_pages = 0;
      policy = `Twoq;
    }

  let v ?(cache_pages = default.cache_pages)
      ?(max_extent_pages = default.max_extent_pages)
      ?(journal_pages = default.journal_pages) ?(policy = default.policy) () =
    { cache_pages; max_extent_pages; journal_pages; policy }
end

let magic = "hFADOSD1"

(* Version 2: every B-tree page ends in a slot directory. A version-1
   image has none, so it is refused rather than misread. *)
let version = 2
let superblock_page = 0
let master_root_page = 1
let journal_first_block = 2

type t = {
  dev : Device.t;
  pgr : Pager.t;
  buddy : Buddy.t;
  btree_alloc : Btree.allocator;
  master : Btree.t;
  lock : Rwlock.t;
      (* One shared/exclusive lock for the whole OSD: reads hold the
         shared side, mutations the exclusive side, and the B-trees and
         index stores stacked on this OSD nest on the same (reentrant)
         lock. *)
  handles_mutex : Mutex.t;  (* guards [handles] and [named_handles] *)
  mutable next_oid : Oid.t;
  mutable named : (string * int) list;  (* name -> root page, superblock-backed *)
  journal : Journal.t option;
  journal_blocks : int;
  mutable pending_ops : int;
      (* logical ops acknowledged since the last checkpoint; stamped
         into the next journal seal's [ops] annotation *)
  max_extent_bytes : int;
  block_size : int;
  handles : (int64, Btree.t) Hashtbl.t;
  named_handles : (string, Btree.t) Hashtbl.t;
}

let shared t f = Rwlock.with_shared t.lock f
let exclusive t f = Rwlock.with_exclusive t.lock f

let max_named_trees = 8
let max_named_name = 16

let c_reads = Registry.counter Registry.global "osd.reads"
let c_writes = Registry.counter Registry.global "osd.writes"
let c_inserts = Registry.counter Registry.global "osd.inserts"
let c_removes = Registry.counter Registry.global "osd.removes"
let c_bytes_read = Registry.counter Registry.global "osd.bytes_read"
let c_bytes_written = Registry.counter Registry.global "osd.bytes_written"

let device t = t.dev
let pager t = t.pgr
let allocator t = t.buddy
let rwlock t = t.lock

(* Releasing the pager's pooled metrics prefix is all "closing" means —
   the simulated device needs no teardown. Idempotent. *)
let close t = Pager.close t.pgr

(* --- superblock ------------------------------------------------------- *)

let journal_blocks_of t =
  match t.journal with None -> 0 | Some _ -> t.journal_blocks

let write_superblock t =
  Pager.with_page_mut t.pgr superblock_page (fun page ->
      Bytes.blit_string magic 0 page 0 8;
      Codec.put_u32 page 8 version;
      Codec.put_i64 page 12 (Oid.to_int64 t.next_oid);
      Codec.put_u32 page 20 (journal_blocks_of t);
      Codec.put_u16 page 24 (List.length t.named);
      let off = ref 26 in
      List.iter
        (fun (name, root) ->
          off := Codec.put_string page !off name;
          Codec.put_u32 page !off root;
          off := !off + 4)
        t.named)

let decode_superblock page =
  if Bytes.sub_string page 0 8 <> magic then
    failwith "Osd.open_existing: bad superblock magic";
  let found = Codec.get_u32 page 8 in
  if found <> version then
    Fmt.failwith "Osd.open_existing: unsupported version %d" found;
  let next_oid = Codec.get_i64 page 12 in
  let journal_blocks = Codec.get_u32 page 20 in
  let count = Codec.get_u16 page 24 in
  let off = ref 26 in
  let named =
    List.init count (fun _ ->
        let name, o = Codec.get_string page !off in
        let root = Codec.get_u32 page o in
        off := o + 4;
        (name, root))
  in
  (next_oid, journal_blocks, named)

(* --- object-tree key space -------------------------------------------- *)

let meta_key = "M"
let extent_prefix = "E"
let extent_key off = extent_prefix ^ Codec.encode_i64_key (Int64.of_int off)

let key_offset k =
  (* 'E' followed by an 8-byte order-preserving offset. *)
  Int64.to_int (Codec.decode_i64_key (String.sub k 1 8))

let is_extent_key k = String.length k = 9 && k.[0] = 'E'

(* --- construction ------------------------------------------------------ *)

let mk_t (config : Config.t) dev ~fresh =
  let { Config.cache_pages; max_extent_pages; journal_pages; policy } =
    config
  in
  if Device.blocks dev < 8 + journal_pages then
    invalid_arg "Osd: device too small";
  if Device.block_size dev < 256 then
    invalid_arg "Osd: block size must be at least 256 bytes";
  if max_extent_pages <= 0 then invalid_arg "Osd: max_extent_pages";
  if journal_pages < 0 then invalid_arg "Osd: journal_pages";
  let pgr = Pager.create ~cache_pages ~no_steal:(journal_pages > 0) ~policy dev in
  let lock = Rwlock.create ~name:"osd" () in
  let journal =
    if journal_pages = 0 then None
    else if fresh then
      Some (Journal.format dev ~first_block:journal_first_block ~blocks:journal_pages)
    else
      match
        Journal.attach dev ~first_block:journal_first_block ~blocks:journal_pages
      with
      | Ok j -> Some j
      | Error reason -> raise (Recovery_failed reason)
  in
  let data_first_block = journal_first_block + journal_pages in
  let buddy =
    Buddy.create ~first_block:data_first_block
      ~blocks:(Device.blocks dev - data_first_block)
      ()
  in
  let btree_alloc =
    {
      Btree.alloc_page = (fun () -> Buddy.alloc buddy 1);
      Btree.free_page = (fun p -> Buddy.free buddy p);
    }
  in
  let master =
    if fresh then Btree.create ~lock pgr btree_alloc ~root:master_root_page
    else Btree.open_tree ~lock pgr btree_alloc ~root:master_root_page
  in
  {
    dev;
    pgr;
    buddy;
    btree_alloc;
    master;
    lock;
    handles_mutex = Mutex.create ();
    next_oid = Oid.first;
    named = [];
    journal;
    journal_blocks = journal_pages;
    pending_ops = 0;
    max_extent_bytes = max_extent_pages * Device.block_size dev;
    block_size = Device.block_size dev;
    handles = Hashtbl.create 64;
    named_handles = Hashtbl.create 8;
  }

let format ?(config = Config.default) dev =
  let t = mk_t config dev ~fresh:true in
  write_superblock t;
  (match t.journal with Some _ -> () | None -> ());
  Pager.flush t.pgr;
  (match t.journal with Some j -> Journal.mark_clean j | None -> ());
  t

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take k acc rest =
        match (k, rest) with
        | 0, _ | _, [] -> (List.rev acc, rest)
        | k, x :: tl -> take (k - 1) (x :: acc) tl
      in
      let head, tail = take n [] l in
      head :: chunks n tail

(* Journaled checkpoint: journal-commit the dirty set, write home, mark
   clean. A crash at any point recovers to either the previous or the new
   checkpoint, never in between. The batch is sized against the journal
   *before* anything is committed ([Journal.would_fit]); a dirty set that
   outgrows the region degrades into several journaled phases — each
   phase is individually atomic, so no dirty state is ever stranded
   behind a [Journal_full], at the cost of whole-flush atomicity in that
   overload case only. *)
let flush_body t () =
  exclusive t (fun () ->
      write_superblock t;
      let ops = t.pending_ops in
      t.pending_ops <- 0;
      match t.journal with
      | None -> Pager.flush t.pgr
      | Some journal ->
          let dirty = Pager.dirty_pages t.pgr in
          Trace.add_attr_int "pages" (List.length dirty);
          if Journal.would_fit journal ~pages:(List.length dirty) then begin
            Journal.commit ~ops journal dirty;
            Pager.flush t.pgr;
            Journal.mark_clean journal
          end
          else begin
            let cap = Journal.capacity_pages journal in
            if cap = 0 then
              raise
                (Journal.Journal_full
                   { needed_blocks = 3; have_blocks = t.journal_blocks });
            (* Overload: several individually-atomic phases. The op
               annotation rides the first seal; the rest carry 0. *)
            List.iteri
              (fun i chunk ->
                Journal.commit ~ops:(if i = 0 then ops else 0) journal chunk;
                Pager.flush_pages t.pgr (List.map fst chunk);
                Journal.mark_clean journal)
              (chunks cap dirty)
          end)

let flush_exn t =
  if Trace.enabled () then
    Trace.with_span ~layer:"osd" ~op:"checkpoint" (flush_body t)
  else flush_body t ()

let flush t = guard (fun () -> flush_exn t)
let journaled t = Option.is_some t.journal
let note_op t = t.pending_ops <- t.pending_ops + 1

let journal_sequence t =
  match t.journal with Some j -> Journal.sequence j | None -> 0L

let journal_capacity_pages t =
  match t.journal with Some j -> Journal.capacity_pages j | None -> 0

(* --- object handles ----------------------------------------------------- *)

let named_roots t = t.named

let create_named_tree t name =
  exclusive t (fun () ->
      if String.length name > max_named_name then
        invalid_arg "Osd.create_named_tree: name too long";
      if List.mem_assoc name t.named then
        invalid_arg "Osd.create_named_tree: name already registered";
      if List.length t.named >= max_named_trees then
        invalid_arg "Osd.create_named_tree: superblock full";
      let root = t.btree_alloc.Btree.alloc_page () in
      let tree = Btree.create ~lock:t.lock t.pgr t.btree_alloc ~root in
      t.named <- t.named @ [ (name, root) ];
      Mutex.lock t.handles_mutex;
      Hashtbl.replace t.named_handles name tree;
      Mutex.unlock t.handles_mutex;
      write_superblock t;
      tree)

let open_named_tree t name =
  Mutex.lock t.handles_mutex;
  let cached = Hashtbl.find_opt t.named_handles name in
  let result =
    match cached with
    | Some tree -> Some tree
    | None -> (
        match List.assoc_opt name t.named with
        | None -> None
        | Some root ->
            let tree = Btree.open_tree ~lock:t.lock t.pgr t.btree_alloc ~root in
            Hashtbl.replace t.named_handles name tree;
            Some tree)
  in
  Mutex.unlock t.handles_mutex;
  result

let named_tree t name =
  match open_named_tree t name with
  | Some tree -> tree
  | None -> create_named_tree t name

let object_root t oid =
  match Btree.find t.master (Oid.to_key oid) with
  | None -> raise (No_such_object oid)
  | Some v -> fst (Codec.get_varint (Bytes.unsafe_of_string v) 0)

let handle t oid =
  let id = Oid.to_int64 oid in
  Mutex.lock t.handles_mutex;
  let cached = Hashtbl.find_opt t.handles id in
  Mutex.unlock t.handles_mutex;
  match cached with
  | Some obj ->
      (* The cached handle may be stale if the object was deleted and the
         OID never reused; deletion removes the cache entry, so a hit is
         always live. *)
      obj
  | None ->
      let root = object_root t oid in
      Mutex.lock t.handles_mutex;
      (* Two concurrent readers may race to fill the slot; keep the
         first-published handle so everyone shares one stats record. *)
      let obj =
        match Hashtbl.find_opt t.handles id with
        | Some obj -> obj
        | None ->
            let obj = Btree.open_tree ~lock:t.lock t.pgr t.btree_alloc ~root in
            Hashtbl.replace t.handles id obj;
            obj
      in
      Mutex.unlock t.handles_mutex;
      obj

let get_meta obj oid =
  match Btree.find obj meta_key with
  | Some encoded -> Meta.decode encoded
  | None -> raise (No_such_object oid)

let put_meta obj meta = Btree.put obj ~key:meta_key ~value:(Meta.encode meta)

(* --- raw byte I/O through the pager ------------------------------------- *)

let read_raw t ~byte_addr ~len buf ~buf_off =
  let bs = t.block_size in
  let rec loop addr remaining dst =
    if remaining > 0 then begin
      let page = addr / bs and off = addr mod bs in
      let chunk = min (bs - off) remaining in
      Pager.with_page t.pgr page (fun p -> Bytes.blit p off buf dst chunk);
      loop (addr + chunk) (remaining - chunk) (dst + chunk)
    end
  in
  loop byte_addr len buf_off

let write_raw t ~byte_addr data ~data_off ~len =
  let bs = t.block_size in
  let rec loop addr remaining src =
    if remaining > 0 then begin
      let page = addr / bs and off = addr mod bs in
      let chunk = min (bs - off) remaining in
      Pager.with_page_mut t.pgr page (fun p ->
          Bytes.blit_string data src p off chunk);
      loop (addr + chunk) (remaining - chunk) (src + chunk)
    end
  in
  loop byte_addr len data_off

let zero_raw t ~byte_addr ~len =
  let bs = t.block_size in
  let rec loop addr remaining =
    if remaining > 0 then begin
      let page = addr / bs and off = addr mod bs in
      let chunk = min (bs - off) remaining in
      Pager.with_page_mut t.pgr page (fun p -> Bytes.fill p off chunk '\000');
      loop (addr + chunk) (remaining - chunk)
    end
  in
  loop byte_addr len

(* --- extent plumbing ------------------------------------------------------ *)

let alloc_extent t len =
  assert (len > 0 && len <= t.max_extent_bytes);
  let blocks = (len + t.block_size - 1) / t.block_size in
  let start = Buddy.alloc t.buddy blocks in
  Extent.make ~alloc_block:start ~alloc_blocks:(Buddy.size_of t.buddy start)
    ~data_off:0 ~len

(* Append fresh extents holding [data] so the object covers bytes
   [at, at + length data); assumes [at] is the current end of coverage. *)
let append_data t obj ~at data =
  let total = String.length data in
  let rec loop pos =
    if pos < total then begin
      let chunk = min t.max_extent_bytes (total - pos) in
      let ext = alloc_extent t chunk in
      write_raw t
        ~byte_addr:(Extent.byte_addr ~block_size:t.block_size ext)
        data ~data_off:pos ~len:chunk;
      Btree.put obj ~key:(extent_key (at + pos)) ~value:(Extent.encode ext);
      loop (pos + chunk)
    end
  in
  loop 0

let append_zeros t obj ~at ~len =
  let rec loop pos =
    if pos < len then begin
      let chunk = min t.max_extent_bytes (len - pos) in
      let ext = alloc_extent t chunk in
      zero_raw t
        ~byte_addr:(Extent.byte_addr ~block_size:t.block_size ext)
        ~len:chunk;
      Btree.put obj ~key:(extent_key (at + pos)) ~value:(Extent.encode ext);
      loop (pos + chunk)
    end
  in
  loop 0

(* Extents overlapping [off, off + len), as (start_offset, extent). *)
let covering_extents t obj ~off ~len =
  ignore t;
  if len <= 0 then []
  else begin
    let start_key =
      match Btree.floor_binding obj (extent_key off) with
      | Some (k, _) when is_extent_key k -> k
      | Some _ | None -> extent_key off
    in
    Btree.fold_range obj ~lo:start_key ~hi:(extent_key (off + len)) ~init:[]
      (fun acc k v ->
        let start = key_offset k in
        let ext = Extent.decode v in
        if start + ext.Extent.len > off then (start, ext) :: acc else acc)
    |> List.rev
  end

(* Ensure an extent boundary exists at byte [pos] (0 < pos < size): the
   extent containing [pos] is cut, with the tail copied into a fresh
   allocation. Cost is bounded by max_extent_bytes, independent of object
   size. *)
let split_at t obj pos =
  match Btree.floor_binding obj (extent_key pos) with
  | Some (k, v) when is_extent_key k ->
      let start = key_offset k in
      let ext = Extent.decode v in
      if start = pos || start + ext.Extent.len <= pos then ()
      else begin
        let left_len = pos - start in
        let right_len = ext.Extent.len - left_len in
        let tail = Bytes.create right_len in
        read_raw t
          ~byte_addr:(Extent.byte_addr ~block_size:t.block_size ext + left_len)
          ~len:right_len tail ~buf_off:0;
        Btree.put obj ~key:k
          ~value:(Extent.encode { ext with Extent.len = left_len });
        append_data t obj ~at:pos (Bytes.unsafe_to_string tail)
      end
  | Some _ | None -> ()

(* Remove and re-insert every extent whose start is >= [from], shifting
   starts by [delta]. Entries are collected first, then rewritten, so no
   transient key collisions occur. *)
let shift_extents t obj ~from ~delta =
  ignore t;
  if delta <> 0 then begin
    let tail =
      (* "F" is the least key above the whole extent keyspace, keeping the
         metadata key ("M") out of the scan. *)
      Btree.fold_range obj ~lo:(extent_key from) ~hi:"F" ~init:[] (fun acc k v ->
          (key_offset k, v) :: acc)
    in
    List.iter (fun (start, _) -> ignore (Btree.remove obj (extent_key start))) tail;
    List.iter
      (fun (start, v) -> Btree.put obj ~key:(extent_key (start + delta)) ~value:v)
      tail
  end

(* --- lifecycle ------------------------------------------------------------ *)

let traced_oid op oid f =
  if Trace.enabled () then
    Trace.with_span ~layer:"osd" ~op
      ~attrs:[ ("oid", Int64.to_string (Oid.to_int64 oid)) ]
      f
  else f ()

let reserve_oid t =
  exclusive t (fun () ->
      let oid = t.next_oid in
      t.next_oid <- Oid.next oid;
      oid)

let create_object ?meta ?oid t =
  exclusive t (fun () ->
      let oid =
        match oid with
        | None ->
            let oid = t.next_oid in
            t.next_oid <- Oid.next oid;
            oid
        | Some reserved ->
            (* A previously reserved identity: it must be below the
               cursor (i.e. actually reserved) and not yet materialized. *)
            if Oid.compare reserved t.next_oid >= 0 then
              invalid_arg "Osd.create_object: oid was never reserved";
            if Btree.mem t.master (Oid.to_key reserved) then
              invalid_arg "Osd.create_object: oid already live";
            reserved
      in
      let root = t.btree_alloc.Btree.alloc_page () in
      let obj = Btree.create ~lock:t.lock t.pgr t.btree_alloc ~root in
      let meta =
        match meta with Some m -> { m with Meta.size = 0 } | None -> Meta.make ()
      in
      put_meta obj meta;
      let root_buf = Bytes.create 8 in
      let len = Codec.put_varint root_buf 0 root in
      Btree.put t.master ~key:(Oid.to_key oid)
        ~value:(Bytes.sub_string root_buf 0 len);
      Mutex.lock t.handles_mutex;
      Hashtbl.replace t.handles (Oid.to_int64 oid) obj;
      Mutex.unlock t.handles_mutex;
      oid)

let exists t oid = Btree.mem t.master (Oid.to_key oid)

let delete_object t oid =
  traced_oid "delete" oid @@ fun () ->
  exclusive t (fun () ->
      let obj = handle t oid in
      let _ = get_meta obj oid in
      Btree.fold_prefix obj ~prefix:extent_prefix ~init:() (fun () _ v ->
          Buddy.free t.buddy (Extent.decode v).Extent.alloc_block);
      Btree.destroy obj;
      ignore (Btree.remove t.master (Oid.to_key oid));
      Mutex.lock t.handles_mutex;
      Hashtbl.remove t.handles (Oid.to_int64 oid);
      Mutex.unlock t.handles_mutex)

let object_count t = Btree.cardinal t.master

let list_objects t =
  shared t (fun () ->
      List.rev
        (Btree.fold_range t.master ~init:[] (fun acc k _ -> Oid.of_key k :: acc)))

(* --- metadata ------------------------------------------------------------- *)

let metadata t oid = shared t (fun () -> get_meta (handle t oid) oid)
let size t oid = (metadata t oid).Meta.size

let update_metadata t oid f =
  exclusive t (fun () ->
      let obj = handle t oid in
      let meta = get_meta obj oid in
      let updated = f meta in
      put_meta obj { updated with Meta.size = meta.Meta.size })

(* --- byte access ------------------------------------------------------------ *)

let check_off off = if off < 0 then invalid_arg "Osd: negative offset"
let check_len len = if len < 0 then invalid_arg "Osd: negative length"

let read t oid ~off ~len =
  check_off off;
  check_len len;
  Counter.incr c_reads;
  traced_oid "read" oid @@ fun () ->
  shared t @@ fun () ->
  let obj = handle t oid in
  let meta = get_meta obj oid in
  let n = min len (meta.Meta.size - off) in
  if n <= 0 then ""
  else begin
    Counter.add c_bytes_read n;
    let buf = Bytes.create n in
    List.iter
      (fun (start, ext) ->
        let from = max off start in
        let upto = min (off + n) (start + ext.Extent.len) in
        read_raw t
          ~byte_addr:
            (Extent.byte_addr ~block_size:t.block_size ext + (from - start))
          ~len:(upto - from) buf ~buf_off:(from - off))
      (covering_extents t obj ~off ~len:n);
    Bytes.unsafe_to_string buf
  end

(* One shared section: the length comes from the same metadata read as
   the bytes, so an overwrite that resizes the object between a size
   lookup and the read cannot return its bytes cut to the old length. *)
let read_all t oid = read t oid ~off:0 ~len:max_int

let write t oid ~off data =
  check_off off;
  Counter.incr c_writes;
  Counter.add c_bytes_written (String.length data);
  traced_oid "write" oid @@ fun () ->
  exclusive t @@ fun () ->
  let obj = handle t oid in
  let meta = get_meta obj oid in
  let cur = meta.Meta.size in
  (* Zero-fill a gap between the current end and the write offset. *)
  let cur =
    if off > cur then begin
      append_zeros t obj ~at:cur ~len:(off - cur);
      off
    end
    else cur
  in
  let len = String.length data in
  let end_ = off + len in
  (* Overwrite the in-place region. *)
  let inplace = min end_ cur - off in
  if inplace > 0 then
    List.iter
      (fun (start, ext) ->
        let from = max off start in
        let upto = min (off + inplace) (start + ext.Extent.len) in
        write_raw t
          ~byte_addr:
            (Extent.byte_addr ~block_size:t.block_size ext + (from - start))
          data ~data_off:(from - off) ~len:(upto - from))
      (covering_extents t obj ~off ~len:inplace);
  (* Append the remainder. *)
  if end_ > cur then
    append_data t obj ~at:cur (String.sub data (cur - off) (end_ - cur));
  put_meta obj (Meta.with_size meta (max cur end_))

let append t oid data = write t oid ~off:(size t oid) data

let insert t oid ~off data =
  check_off off;
  exclusive t @@ fun () ->
  let obj = handle t oid in
  let meta = get_meta obj oid in
  if off >= meta.Meta.size then write t oid ~off data
  else begin
    Counter.incr c_inserts;
    Counter.add c_bytes_written (String.length data);
    let len = String.length data in
    if len > 0 then begin
      split_at t obj off;
      shift_extents t obj ~from:off ~delta:len;
      append_data t obj ~at:off data;
      put_meta obj (Meta.with_size meta (meta.Meta.size + len))
    end
  end

let remove_bytes t oid ~off ~len =
  check_off off;
  check_len len;
  exclusive t @@ fun () ->
  let obj = handle t oid in
  let meta = get_meta obj oid in
  let n = min len (meta.Meta.size - off) in
  if n > 0 then begin
    Counter.incr c_removes;
    let end_ = off + n in
    split_at t obj off;
    split_at t obj end_;
    (* Whole extents inside the range: free and forget. *)
    let doomed =
      Btree.fold_range obj ~lo:(extent_key off) ~hi:(extent_key end_) ~init:[]
        (fun acc k v -> (k, v) :: acc)
    in
    List.iter
      (fun (k, v) ->
        Buddy.free t.buddy (Extent.decode v).Extent.alloc_block;
        ignore (Btree.remove obj k))
      doomed;
    shift_extents t obj ~from:end_ ~delta:(-n);
    put_meta obj (Meta.with_size meta (meta.Meta.size - n))
  end

let truncate t oid new_size =
  if new_size < 0 then invalid_arg "Osd.truncate: negative size";
  exclusive t @@ fun () ->
  let cur = size t oid in
  if new_size < cur then remove_bytes t oid ~off:new_size ~len:(cur - new_size)
  else if new_size > cur then begin
    let obj = handle t oid in
    let meta = get_meta obj oid in
    append_zeros t obj ~at:cur ~len:(new_size - cur);
    put_meta obj (Meta.with_size meta new_size)
  end

let compact t oid =
  exclusive t @@ fun () ->
  let obj = handle t oid in
  let meta = get_meta obj oid in
  if meta.Meta.size > 0 then begin
    (* Read the whole object, free every old extent, and lay the bytes
       back down in maximal fresh extents. Freeing first lets the new
       allocation reuse (and coalesce) the space just released. *)
    let content = read t oid ~off:0 ~len:meta.Meta.size in
    let old =
      Btree.fold_prefix obj ~prefix:extent_prefix ~init:[] (fun acc k v ->
          (k, v) :: acc)
    in
    List.iter
      (fun (k, v) ->
        Buddy.free t.buddy (Extent.decode v).Extent.alloc_block;
        ignore (Btree.remove obj k))
      old;
    append_data t obj ~at:0 content;
    put_meta obj meta
  end

(* --- introspection ---------------------------------------------------------- *)

let extent_count t oid =
  Btree.fold_prefix (handle t oid) ~prefix:extent_prefix ~init:0
    (fun acc _ _ -> acc + 1)

let verify_object t oid =
  shared t @@ fun () ->
  let fail fmt = Format.kasprintf failwith fmt in
  let obj = handle t oid in
  let meta = get_meta obj oid in
  Btree.verify obj;
  let final =
    Btree.fold_prefix obj ~prefix:extent_prefix ~init:0 (fun pos k v ->
        let start = key_offset k in
        let ext = Extent.decode v in
        if start <> pos then
          fail "%a: extent at %d but coverage reached %d" Oid.pp oid start pos;
        if ext.Extent.len <= 0 then fail "%a: empty extent at %d" Oid.pp oid start;
        if
          ext.Extent.data_off + ext.Extent.len
          > ext.Extent.alloc_blocks * t.block_size
        then fail "%a: extent at %d overruns its allocation" Oid.pp oid start;
        if not (Buddy.is_allocated t.buddy ext.Extent.alloc_block) then
          fail "%a: extent at %d references freed blocks" Oid.pp oid start;
        if Buddy.size_of t.buddy ext.Extent.alloc_block <> ext.Extent.alloc_blocks
        then fail "%a: extent at %d disagrees with allocator on size" Oid.pp oid start;
        pos + ext.Extent.len)
  in
  if final <> meta.Meta.size then
    fail "%a: extents cover %d bytes but size is %d" Oid.pp oid final
      meta.Meta.size

let verify t =
  shared t (fun () ->
      Btree.verify t.master;
      List.iter
        (fun (name, _) -> Option.iter Btree.verify (open_named_tree t name))
        t.named;
      List.iter (verify_object t) (list_objects t))

(* --- reopening ---------------------------------------------------------------- *)

(* Replay (or heal) the journal at [journal_first_block]. Every recovery
   outcome is typed: a torn seal or a sealed batch both resolve without
   an exception; only untrusted journals (bad magic where one must
   exist, corrupt sealed records) raise {!Recovery_failed}. *)
let run_recovery dev ~blocks =
  match Journal.attach dev ~first_block:journal_first_block ~blocks with
  | Error reason -> raise (Recovery_failed reason)
  | Ok journal -> (
      match Journal.recover journal with
      | Journal.Clean -> ()
      | Journal.Torn_seal ->
          (* The seal never became durable: the previous checkpoint is in
             force; heal the header so the next attach sees a clean
             journal. *)
          Journal.mark_clean journal
      | Journal.Committed pages ->
          List.iter (fun (home, data) -> Device.write_block dev home data) pages;
          Device.flush dev;
          Journal.mark_clean journal
      | Journal.Corrupt reason -> raise (Recovery_failed reason))

let open_existing_exn ?(config = Config.default) dev =
  (* Peek at the superblock with raw device reads: recovery must complete
     before any page is cached. The superblock's own home write may have
     torn in the crash, so an undecodable superblock triggers a recovery
     attempt with the region length upper-bounded by the device — replay
     rewrites the superblock, after which it must decode. *)
  let decode_raw_super () =
    match decode_superblock (Device.read_block dev superblock_page) with
    | super -> Ok super
    | exception Failure msg -> Error msg
  in
  let journal_pages =
    match decode_raw_super () with
    | Ok (_, journal_pages, _) ->
        if journal_pages > 0 then run_recovery dev ~blocks:journal_pages;
        journal_pages
    | Error msg -> (
        (* No journal region at all (unjournaled device, superblock rot):
           the superblock error is the real story. *)
        (try run_recovery dev ~blocks:(Device.blocks dev - journal_first_block)
         with Recovery_failed Journal.Bad_magic -> failwith msg);
        match decode_raw_super () with
        | Ok (_, journal_pages, _) -> journal_pages
        | Error _ -> failwith msg)
  in
  let t = mk_t { config with Config.journal_pages } dev ~fresh:false in
  let next_oid, _journal_pages, named =
    Pager.with_page t.pgr superblock_page decode_superblock
  in
  t.next_oid <- Oid.of_int64 next_oid;
  t.named <- named;
  (* Rebuild allocator occupancy: every index page and every extent
     allocation of every tree is re-reserved. *)
  let reserve_page page =
    if page >= journal_first_block + t.journal_blocks then
      Buddy.reserve t.buddy ~start:page ~blocks:1
  in
  Btree.fold_pages t.master ~init:() (fun () page -> reserve_page page);
  List.iter
    (fun oid ->
      let obj = handle t oid in
      Btree.fold_pages obj ~init:() (fun () page -> reserve_page page);
      Btree.fold_prefix obj ~prefix:extent_prefix ~init:() (fun () _ v ->
          let ext = Extent.decode v in
          Buddy.reserve t.buddy ~start:ext.Extent.alloc_block
            ~blocks:ext.Extent.alloc_blocks))
    (list_objects t);
  List.iter
    (fun (name, _) ->
      match open_named_tree t name with
      | Some tree ->
          Btree.fold_pages tree ~init:() (fun () page -> reserve_page page)
      | None -> assert false)
    named;
  t

let open_existing ?config dev = guard (fun () -> open_existing_exn ?config dev)
