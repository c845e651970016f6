module Fs = Hfad.Fs
module Osd = Hfad_osd.Osd
module Oid = Hfad_osd.Oid
module Meta = Hfad_osd.Meta
module Tag = Hfad_index.Tag
module Kv_index = Hfad_index.Kv_index
module Trace = Hfad_trace.Trace
module Pathcache = Hfad_pathcache.Pathcache

type errno = Hfad_util.Errno.t =
  | ENOENT
  | EEXIST
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | EBADF
  | EINVAL
  | ELOOP

exception Error of errno * string

let pp_errno = Hfad_util.Errno.pp
let err errno context = raise (Error (errno, context))

type error = Errno of errno * string | Storage of Fs.error

let pp_error fmt = function
  | Errno (e, ctx) -> Format.fprintf fmt "%a: %s" pp_errno e ctx
  | Storage e -> Format.pp_print_string fmt (Fs.error_message e)

(* Typed entry point over a raising body: veneer errnos and storage
   errors each land in their own arm, anything else propagates. *)
let result f =
  match Osd.guard f with
  | Ok v -> Ok v
  | Error e -> Error (Storage e)
  | exception Error (e, ctx) -> Error (Errno (e, ctx))

type fd_state = { oid : Oid.t; mutable pos : int }

type t = {
  fs : Fs.t;
  fds : (int, fd_state) Hashtbl.t;
  fds_mutex : Mutex.t;  (* guards [fds], [next_fd] and every cursor *)
  mutable next_fd : int;
  (* Full-path -> OID memo over the POSIX index lookup (None when
     disabled). Caches the pre-symlink binding, so symlink semantics are
     untouched; every unname site below invalidates precisely. *)
  pcache : Oid.t Pathcache.t option;
}

type fd = int

let max_symlink_hops = 8

(* --- primitive name operations ------------------------------------------ *)

let lookup_name t path = Fs.lookup_one t.fs [ (Tag.Posix, path) ]

(* The single resolution primitive: one hashed hit on the normalized
   full path, falling through to (and memoizing) the authoritative
   index descent. Negatives are never cached. A hit whose OID is no
   longer live — possible when a second veneer mounted over the same
   [Fs] unlinked the object (each mount's memo is private) — fails
   safe: drop the entry and re-run the authoritative lookup, so the
   caller sees ENOENT, never [Osd.No_such_object]. *)
let oid_at t path =
  match t.pcache with
  | None -> lookup_name t path
  | Some pc -> (
      let miss () =
        match lookup_name t path with
        | Some oid as r ->
            Pathcache.add pc path oid;
            r
        | None -> None
      in
      match Pathcache.find pc path with
      | Some oid as hit ->
          if Fs.exists t.fs oid then hit
          else begin
            Pathcache.invalidate pc path;
            miss ()
          end
      | None -> miss ())

let invalidate t path =
  match t.pcache with Some pc -> Pathcache.invalidate pc path | None -> ()

let invalidate_prefix t path =
  match t.pcache with
  | Some pc -> Pathcache.invalidate_prefix pc path
  | None -> ()

let memo t path oid =
  match t.pcache with Some pc -> Pathcache.add pc path oid | None -> ()

(* Naming is write-through: [Fs.name_exn] either binds [path -> oid] or
   raises, so on success the cache may memoize immediately. *)
let add_name t oid path =
  (try Fs.name_exn t.fs oid Tag.Posix path
   with Kv_index.Value_not_indexable _ -> err EINVAL path);
  memo t path oid

(* A new object is created with its path as one mutation, so a path the
   index refuses leaves no unnamed object behind. *)
let create_named ?content t ~meta path =
  let oid =
    try Fs.create_exn ~meta ~names:[ (Tag.Posix, path) ] ?content t.fs
    with Kv_index.Value_not_indexable _ -> err EINVAL path
  in
  memo t path oid;
  oid

let mount ?(pathcache_entries = 512) fs =
  let t =
    {
      fs;
      fds = Hashtbl.create 16;
      fds_mutex = Mutex.create ();
      next_fd = 3;
      pcache =
        (if pathcache_entries > 0 then
           Some (Pathcache.create ~capacity:pathcache_entries ())
         else None);
    }
  in
  (match oid_at t "/" with
  | Some _ -> ()
  | None ->
      let meta = Meta.make ~kind:Meta.Directory ~mode:0o755 () in
      ignore (create_named t ~meta "/"));
  t

let unmount t =
  match t.pcache with Some pc -> Pathcache.close pc | None -> ()

let pathcache_stats t = Option.map Pathcache.stats t.pcache

let fs t = t.fs

(* --- resolution ------------------------------------------------------------ *)

let rec resolve_norm t path ~follow ~hops =
  match oid_at t path with
  | None -> err ENOENT path
  | Some oid ->
      let meta = Fs.metadata t.fs oid in
      if follow && meta.Meta.kind = Meta.Symlink then begin
        if hops >= max_symlink_hops then err ELOOP path;
        let target = Fs.read_all t.fs oid in
        let absolute =
          if String.length target > 0 && target.[0] = '/' then target
          else Path.join (Path.parent path) target
        in
        resolve_norm t (Path.normalize absolute) ~follow ~hops:(hops + 1)
      end
      else oid

let traced op path f =
  if Trace.enabled () then
    Trace.with_span ~layer:"posix" ~op ~attrs:[ ("path", path) ] f
  else f ()

let resolve ?(follow = true) t path =
  traced "resolve" path @@ fun () ->
  resolve_norm t (Path.normalize path) ~follow ~hops:0

let exists t path =
  match resolve t path with _ -> true | exception Error _ -> false

let meta_of t path = Fs.metadata t.fs (resolve t path)

let is_directory t path =
  match meta_of t path with
  | meta -> meta.Meta.kind = Meta.Directory
  | exception Error _ -> false

let stat t path = meta_of t path
let nlink t path =
  let oid = resolve ~follow:false t path in
  List.length
    (List.filter
       (fun (tag, _) -> Tag.equal tag Tag.Posix)
       (Fs.names_of t.fs oid))

let require_parent_dir t path =
  let parent = Path.parent path in
  match resolve t parent with
  | oid ->
      if (Fs.metadata t.fs oid).Meta.kind <> Meta.Directory then
        err ENOTDIR parent
  | exception Error (ENOENT, _) -> err ENOENT parent

let require_absent t path = if exists t path then err EEXIST path

(* --- directory operations ----------------------------------------------------- *)

let mkdir_exn t path =
  traced "mkdir" path @@ fun () ->
  let path = Path.normalize path in
  if path = "/" then err EEXIST path;
  require_absent t path;
  require_parent_dir t path;
  let meta = Meta.make ~kind:Meta.Directory ~mode:0o755 () in
  ignore (create_named t ~meta path)

let rec mkdir_p_exn t path =
  let path = Path.normalize path in
  if path <> "/" && not (exists t path) then begin
    mkdir_p_exn t (Path.parent path);
    mkdir_exn t path
  end
  else if path <> "/" && not (is_directory t path) then err ENOTDIR path

let dir_prefix path = if path = "/" then "/" else path ^ "/"

let children t path =
  (* One level below [path]: values with the directory prefix and no
     further '/' in the remainder. *)
  let prefix = dir_prefix path in
  Fs.list_names t.fs Tag.Posix ~prefix
  |> List.filter_map (fun (value, oid) ->
         let rest =
           String.sub value (String.length prefix)
             (String.length value - String.length prefix)
         in
         if rest <> "" && not (String.contains rest '/') then Some (rest, oid)
         else None)

let readdir t path =
  traced "readdir" path @@ fun () ->
  let path = Path.normalize path in
  let oid = resolve t path in
  if (Fs.metadata t.fs oid).Meta.kind <> Meta.Directory then err ENOTDIR path;
  List.map fst (children t path)

let walk t path =
  let path = Path.normalize path in
  (* The root's prefix scan ("/") already matches the root's own name;
     any other directory's prefix ("p/") excludes p itself. *)
  let self =
    if path = "/" then []
    else
      match oid_at t path with Some oid -> [ (path, oid) ] | None -> []
  in
  self @ Fs.list_names t.fs Tag.Posix ~prefix:(dir_prefix path)
  |> List.sort compare

(* --- files ------------------------------------------------------------------------ *)

let create_file_exn ?content t path =
  traced "create_file" path @@ fun () ->
  let path = Path.normalize path in
  if path = "/" then err EISDIR path;
  require_absent t path;
  require_parent_dir t path;
  create_named ?content t ~meta:(Meta.make ~kind:Meta.Regular ()) path

let link_exn t existing fresh =
  let fresh = Path.normalize fresh in
  let oid = resolve ~follow:false t existing in
  if (Fs.metadata t.fs oid).Meta.kind = Meta.Directory then err EISDIR existing;
  require_absent t fresh;
  require_parent_dir t fresh;
  add_name t oid fresh

let symlink_exn t ~target path =
  let path = Path.normalize path in
  require_absent t path;
  require_parent_dir t path;
  let meta = Meta.make ~kind:Meta.Symlink () in
  ignore (create_named ~content:target t ~meta path)

let readlink t path =
  let oid = resolve ~follow:false t path in
  if (Fs.metadata t.fs oid).Meta.kind <> Meta.Symlink then err EINVAL path
  else Fs.read_all t.fs oid

let nlink_oid t oid =
  List.length
    (List.filter
       (fun (tag, _) -> Tag.equal tag Tag.Posix)
       (Fs.names_of t.fs oid))

let unlink_exn t path =
  traced "unlink" path @@ fun () ->
  let path = Path.normalize path in
  let oid = resolve ~follow:false t path in
  if (Fs.metadata t.fs oid).Meta.kind = Meta.Directory then err EISDIR path;
  ignore (Fs.unname_exn t.fs oid Tag.Posix path);
  invalidate t path;
  if nlink_oid t oid = 0 then Fs.delete_exn t.fs oid

let rmdir_exn t path =
  let path = Path.normalize path in
  if path = "/" then err EINVAL path;
  let oid = resolve ~follow:false t path in
  if (Fs.metadata t.fs oid).Meta.kind <> Meta.Directory then err ENOTDIR path;
  if children t path <> [] then err ENOTEMPTY path;
  ignore (Fs.unname_exn t.fs oid Tag.Posix path);
  invalidate_prefix t path;
  Fs.delete_exn t.fs oid

(* Re-key [old_path] (and, for a directory, everything under it) as one
   {!Fs.with_txn} plan: a crash mid-rename recovers with the whole
   subtree under either the old or the new prefix, never a mix. Returns
   [false] when the plan cannot commit atomically — the OIDs span shards
   on a sharded stack, or the subtree's estimated dirty set exceeds the
   journal — and the caller falls back to the sequential re-key. *)
let rename_txn t oid ~old_path ~new_path ~children =
  match
    Fs.with_txn t.fs (fun tx ->
        Fs.Txn.rename tx oid Tag.Posix ~from_:old_path ~to_:new_path;
        List.iter
          (fun (value, child) ->
            Fs.Txn.rename tx child Tag.Posix ~from_:value
              ~to_:
                (Path.replace_prefix ~old_prefix:old_path
                   ~new_prefix:new_path value))
          children)
  with
  | Ok () -> true
  | Error (Fs.Txn_invalid _) -> false
  | Error e -> Osd.raise_error e

let rename_exn t old_path new_path =
  traced "rename" old_path @@ fun () ->
  let old_path = Path.normalize old_path
  and new_path = Path.normalize new_path in
  if old_path = "/" then err EINVAL old_path;
  let oid = resolve ~follow:false t old_path in
  if old_path = new_path then ()
  else begin
    require_absent t new_path;
    require_parent_dir t new_path;
    if Path.is_ancestor ~ancestor:old_path new_path then err EINVAL new_path;
    let is_dir = (Fs.metadata t.fs oid).Meta.kind = Meta.Directory in
    let children =
      if is_dir then Fs.list_names t.fs Tag.Posix ~prefix:(dir_prefix old_path)
      else []
    in
    if rename_txn t oid ~old_path ~new_path ~children then begin
      (* The names moved atomically; only the memo needs repair. *)
      if is_dir then invalidate_prefix t old_path else invalidate t old_path;
      memo t new_path oid
    end
    else begin
      ignore (Fs.unname_exn t.fs oid Tag.Posix old_path);
      (* A directory leaves every cached descendant stale, all at once,
         before the re-key loop repopulates the new names write-through. *)
      if is_dir then invalidate_prefix t old_path else invalidate t old_path;
      add_name t oid new_path;
      (* Re-key every name under the directory: the inherent cost of a
         path-keyed namespace (measured in bench C4). *)
      List.iter
        (fun (value, child) ->
          ignore (Fs.unname_exn t.fs child Tag.Posix value);
          add_name t child
            (Path.replace_prefix ~old_prefix:old_path ~new_prefix:new_path
               value))
        children
    end
  end

(* --- descriptors -------------------------------------------------------------------- *)

let openf ?(create = false) t path =
  let path = Path.normalize path in
  let oid =
    match resolve t path with
    | oid ->
        if (Fs.metadata t.fs oid).Meta.kind = Meta.Directory then err EISDIR path;
        oid
    | exception Error (ENOENT, _) when create -> create_file_exn t path
  in
  Mutex.lock t.fds_mutex;
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fds fd { oid; pos = 0 };
  Mutex.unlock t.fds_mutex;
  fd

let with_fds t f =
  Mutex.lock t.fds_mutex;
  match f () with
  | result ->
      Mutex.unlock t.fds_mutex;
      result
  | exception e ->
      Mutex.unlock t.fds_mutex;
      raise e

let fd_state t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some state -> state
  | None -> err EBADF (string_of_int fd)

let close t fd =
  with_fds t (fun () ->
      ignore (fd_state t fd);
      Hashtbl.remove t.fds fd)

(* Descriptor I/O takes the cursor under the fd mutex, performs the
   (self-locking) Fs call outside it, then advances the cursor — so slow
   I/O on one descriptor never blocks the descriptor table. *)
let read_fd t fd n =
  if n < 0 then err EINVAL "negative read length";
  let state, pos = with_fds t (fun () -> let s = fd_state t fd in (s, s.pos)) in
  let data = Fs.read t.fs state.oid ~off:pos ~len:n in
  with_fds t (fun () -> state.pos <- pos + String.length data);
  data

let write_fd_exn t fd data =
  let state, pos = with_fds t (fun () -> let s = fd_state t fd in (s, s.pos)) in
  Fs.write_exn t.fs state.oid ~off:pos data;
  with_fds t (fun () -> state.pos <- pos + String.length data)

let seek t fd pos =
  if pos < 0 then err EINVAL "negative seek";
  with_fds t (fun () -> (fd_state t fd).pos <- pos)

let tell t fd = with_fds t (fun () -> (fd_state t fd).pos)

(* --- conveniences ------------------------------------------------------------------- *)

let read_file t path =
  traced "read_file" path @@ fun () -> Fs.read_all t.fs (resolve t path)

(* An overwrite is one plan, so a reader sees the old bytes or the new,
   never the truncated file between them. *)
let write_file_exn t path data =
  let path = Path.normalize path in
  match resolve t path with
  | oid ->
      if (Fs.metadata t.fs oid).Meta.kind = Meta.Directory then err EISDIR path;
      Fs.with_txn_exn t.fs (fun tx ->
          Fs.Txn.truncate tx oid 0;
          if data <> "" then Fs.Txn.write tx oid ~off:0 data)
  | exception Error (ENOENT, _) -> ignore (create_file_exn ~content:data t path)

(* --- typed mutation API ------------------------------------------------------------- *)

let mkdir t path = result (fun () -> mkdir_exn t path)
let mkdir_p t path = result (fun () -> mkdir_p_exn t path)
let create_file ?content t path = result (fun () -> create_file_exn ?content t path)
let link t existing fresh = result (fun () -> link_exn t existing fresh)
let symlink t ~target path = result (fun () -> symlink_exn t ~target path)
let unlink t path = result (fun () -> unlink_exn t path)
let rmdir t path = result (fun () -> rmdir_exn t path)
let rename t old_path new_path = result (fun () -> rename_exn t old_path new_path)
let write_fd t fd data = result (fun () -> write_fd_exn t fd data)
let write_file t path data = result (fun () -> write_file_exn t path data)

(* --- verification ---------------------------------------------------------------------- *)

let verify t =
  let fail fmt = Format.kasprintf failwith fmt in
  let names = Fs.list_names t.fs Tag.Posix ~prefix:"/" in
  List.iter
    (fun (path, oid) ->
      if Path.normalize path <> path then
        fail "stored non-normalized path %S" path;
      if not (Fs.exists t.fs oid) then
        fail "path %s names dead object %a" path Oid.pp oid;
      if path <> "/" then begin
        let parent = Path.parent path in
        match oid_at t parent with
        | None -> fail "path %s has no parent directory" path
        | Some parent_oid ->
            if (Fs.metadata t.fs parent_oid).Meta.kind <> Meta.Directory then
              fail "parent of %s is not a directory" path
      end)
    names
