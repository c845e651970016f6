module Osd = Hfad_osd.Osd
module Oid = Hfad_osd.Oid
module Meta = Hfad_osd.Meta
module Btree = Hfad_btree.Btree
module Fulltext = Hfad_fulltext.Fulltext
module Oid_set = Set.Make (Oid)
module Pager = Hfad_pager.Pager
module Registry = Hfad_metrics.Registry
module Counter = Hfad_metrics.Counter
module Rwlock = Hfad_util.Rwlock
module Trace = Hfad_trace.Trace

exception Unsupported_tag of Tag.t

type t = {
  osd : Osd.t;
  attrs : Btree.t;
  fulltext : Fulltext.t;
  mutable dirty : Oid_set.t;
      (* Objects whose content changed since their last reindex; read
         and written under [lock]. Each also has a mark key in the
         full-text tree, so the set survives a reopen. *)
  mutable unfit : Oid_set.t;
      (* The marked objects a drain found too large to index within the
         dirty budget; drains pass over them until they change again.
         Under [lock]. *)
  kv : (string, Kv_index.t) Hashtbl.t;
      (* One slice per namespace: every namespace the attrs tree held at
         open, plus each one named since. *)
  kv_mutex : Mutex.t;  (* guards the [kv] slice cache only *)
  lock : Rwlock.t;
      (* The owning OSD's lock: queries take the shared side, index
         mutations the exclusive side, so index state and object state
         stay mutually consistent under concurrent domains. *)
}

let shared t f = Rwlock.with_shared t.lock f
let exclusive t f = Rwlock.with_exclusive t.lock f

let c_lookups = Registry.counter Registry.global "index.lookups"
let c_queries = Registry.counter Registry.global "index.queries"

let create osd =
  let attrs = Osd.named_tree osd "attrs" in
  let ft_tree = Osd.named_tree osd "fulltext" in
  let fulltext = Fulltext.create ft_tree in
  let kv = Hashtbl.create 8 in
  List.iter
    (fun ns -> Hashtbl.replace kv ns (Kv_index.create attrs ~namespace:ns))
    (Kv_index.namespaces attrs);
  {
    osd;
    attrs;
    fulltext;
    dirty = Oid_set.of_list (Fulltext.marked fulltext);
    unfit = Oid_set.empty;
    kv;
    kv_mutex = Mutex.create ();
    lock = Osd.rwlock osd;
  }

let kv_index t tag =
  match tag with
  | Tag.Fulltext | Tag.Id -> raise (Unsupported_tag tag)
  | Tag.Posix | Tag.User | Tag.Udef | Tag.App | Tag.Custom _ ->
      let name = Tag.to_string tag in
      (* [Kv_index.create] refuses some names: the mutex must not stay
         locked behind it. *)
      Mutex.protect t.kv_mutex (fun () ->
          match Hashtbl.find_opt t.kv name with
          | Some kv -> kv
          | None ->
              let kv = Kv_index.create t.attrs ~namespace:name in
              Hashtbl.replace t.kv name kv;
              kv)

(* --- attribute tagging ---------------------------------------------------- *)

let traced_tag op tag f =
  if Trace.enabled () then
    Trace.with_span ~layer:"index" ~op
      ~attrs:[ ("tag", Tag.to_string tag) ]
      f
  else f ()

let add t oid tag value =
  traced_tag "add" tag @@ fun () ->
  exclusive t (fun () -> Kv_index.add (kv_index t tag) oid value)

let check t tag value = Kv_index.check_value (kv_index t tag) value

let remove t oid tag value =
  traced_tag "remove" tag @@ fun () ->
  exclusive t (fun () -> Kv_index.remove (kv_index t tag) oid value)

(* The tag a namespace belongs to. Total, unlike [Tag.of_string]: any
   namespace found in the tree can be listed. *)
let tag_of_namespace name =
  match List.find_opt (fun tag -> Tag.to_string tag = name) Tag.builtin with
  | Some tag -> tag
  | None -> Tag.Custom name

let slices t = Mutex.protect t.kv_mutex (fun () -> Hashtbl.to_seq t.kv |> List.of_seq)

let values_of t oid =
  shared t @@ fun () ->
  List.concat_map
    (fun (name, kv) ->
      let tag = tag_of_namespace name in
      List.map (fun v -> (tag, v)) (Kv_index.values_of kv oid))
    (slices t)
  |> List.sort (fun (ta, va) (tb, vb) ->
         match Tag.compare ta tb with 0 -> String.compare va vb | c -> c)

(* --- content indexing ------------------------------------------------------ *)

(* The full-text index is a view of the objects' current bytes. A
   mutation only marks its object; a drain recomputes each marked
   object's postings from what the object holds at that moment, so k
   mutations before a drain cost one reindex, and a drain can never
   bring back the postings of a deleted object. The first mark also
   binds the object's mark key, inside the mutation's exclusive section,
   so the seal that carries the mutation carries its mark. Changed
   bytes may fit where the old ones did not. *)
let mark_dirty t oid =
  exclusive t (fun () ->
      t.unfit <- Oid_set.remove oid t.unfit;
      if not (Oid_set.mem oid t.dirty) then begin
        t.dirty <- Oid_set.add oid t.dirty;
        Fulltext.mark t.fulltext oid
      end)

let backlog t = shared t (fun () -> Oid_set.cardinal t.dirty)
let unfit t = shared t (fun () -> Oid_set.cardinal t.unfit)

(* [unfit] is a subset of [dirty]: a drain adds only marked objects to
   it, and whatever unmarks an object takes it out. *)
let pending t =
  shared t (fun () -> Oid_set.cardinal t.dirty - Oid_set.cardinal t.unfit)

(* One metadata lookup decides: a regular object is indexed from its
   bytes; a deleted object, a directory or a symlink loses its postings. *)
let content t oid =
  match Osd.metadata t.osd oid with
  | { Meta.kind = Meta.Regular; size; _ } -> Some (Osd.read t.osd oid ~off:0 ~len:size)
  | { Meta.kind = Meta.Directory | Meta.Symlink; _ }
  | (exception Osd.No_such_object _) ->
      None

(* A large backlog is applied in chunks of at most [drain_chunk]
   documents, and a chunk takes no further document once its texts
   reach [drain_chunk_bytes], so a drain holds a bounded set of texts
   and key changes at once. *)
let drain_chunk = 64
let drain_chunk_bytes = 32 * 1024

(* The next chunk from [oids], with each document's content. *)
let rec take_chunk t oids ~room ~bytes =
  if room <= 0 || bytes >= drain_chunk_bytes then []
  else
    match oids () with
    | Seq.Nil -> []
    | Seq.Cons (oid, rest) ->
        let text = content t oid in
        let bytes = bytes + Option.fold ~none:0 ~some:String.length text in
        (oid, text) :: take_chunk t rest ~room:(room - 1) ~bytes

let unmark t docs =
  t.dirty <- List.fold_left (fun dirty (oid, _) -> Oid_set.remove oid dirty) t.dirty docs

(* [docs] cut into [n] runs of near-equal length, in order. *)
let cut docs n =
  let len = List.length docs in
  List.init n (fun k ->
      List.filteri (fun i _ -> i * n / len = k) docs)
  |> List.filter (fun run -> run <> [])

(* Index [docs] in one sorted pass, unless its footprint could push the
   dirty set past [fit] (the dirty budget, or one journal commit if that
   is smaller): then seal first, or, for several documents that would
   pass [fit] on their own, cut them into runs sized to fit and index
   each in turn. A single document may pass one journal commit (its seal
   then splits into phases) but not the budget. Returns the OIDs of
   documents too large to index even alone; they stay marked, and
   nothing of theirs is written. *)
let rec index_docs t docs =
  let batch = Fulltext.prepare t.fulltext docs in
  let budget = Osd.dirty_budget t.osd in
  let pages = if budget = max_int then 0 else Fulltext.footprint t.fulltext batch in
  let fit = max 1 (min budget (Osd.journal_capacity_pages t.osd)) in
  match docs with
  | [ (oid, _) ] when pages > budget -> [ oid ]
  | _ :: _ :: _ when pages > fit ->
      List.concat_map (index_docs t)
        (cut docs (min (List.length docs) ((pages / fit) + 2)))
  | _ ->
      if Pager.dirty_count (Osd.pager t.osd) + pages > fit then Osd.flush_exn t.osd;
      Fulltext.apply t.fulltext batch;
      unmark t docs;
      []

(* Ascending OID order: postings keys end in the OID, so a bulk load
   appends each term's new postings at the right edge of its key range.
   A chunk is unmarked only after it applies, so a chunk that raises
   stays marked. A document that cannot fit joins [unfit] and is passed
   over from then on. *)
let drain ?(max_items = max_int) t =
  exclusive t @@ fun () ->
  let rec go n tried =
    let chunk =
      take_chunk t
        (Oid_set.to_seq (Oid_set.diff t.dirty t.unfit))
        ~room:(min drain_chunk (max_items - tried))
        ~bytes:0
    in
    if chunk = [] then n
    else begin
      let failed = index_docs t chunk in
      t.unfit <- Oid_set.union t.unfit (Oid_set.of_list failed);
      let k = List.length chunk in
      go (n + k - List.length failed) (tried + k)
    end
  in
  go 0 0

let fulltext t = t.fulltext

(* --- naming ------------------------------------------------------------------ *)

let lookup t (tag, value) =
  Counter.incr c_lookups;
  traced_tag "lookup" tag @@ fun () ->
  shared t @@ fun () ->
  match tag with
  | Tag.Id -> (
      match Oid.of_string value with
      | Some oid when Osd.exists t.osd oid -> [ oid ]
      | Some _ | None -> [])
  | Tag.Fulltext -> Fulltext.search t.fulltext [ value ]
  | Tag.Posix | Tag.User | Tag.Udef | Tag.App | Tag.Custom _ ->
      Kv_index.lookup (kv_index t tag) value

(* Ordering decisions never benefit from precision beyond this bound,
   and an exact count of a popular value would itself scan the postings. *)
let selectivity_cap = 1024

let selectivity t (tag, value) =
  shared t @@ fun () ->
  match tag with
  | Tag.Id -> 1
  | Tag.Fulltext -> Fulltext.document_frequency t.fulltext value
  | Tag.Posix | Tag.User | Tag.Udef | Tag.App | Tag.Custom _ ->
      Kv_index.count_value_capped (kv_index t tag) value ~cap:selectivity_cap

let contains t oid (tag, value) =
  shared t @@ fun () ->
  match tag with
  | Tag.Id -> (
      match Oid.of_string value with
      | Some target -> Oid.equal oid target && Osd.exists t.osd oid
      | None -> false)
  | Tag.Fulltext -> Fulltext.mem_posting t.fulltext value oid
  | Tag.Posix | Tag.User | Tag.Udef | Tag.App | Tag.Custom _ ->
      Kv_index.mem (kv_index t tag) oid value

(* Intersection of ascending OID lists. *)
let intersect a b =
  let rec go xs ys acc =
    match (xs, ys) with
    | [], _ | _, [] -> List.rev acc
    | x :: xs', y :: ys' ->
        let c = Oid.compare x y in
        if c = 0 then go xs' ys' (x :: acc)
        else if c < 0 then go xs' ys acc
        else go xs ys' acc
  in
  go a b []

(* When the surviving candidate set is much smaller than a pair's
   posting list, probing each candidate (one descent each) beats
   scanning the postings. *)
let probe_threshold = 8

let narrow t acc (sel, pair) =
  match acc with
  | [] -> []
  | _ when sel > probe_threshold * List.length acc ->
      List.filter (fun oid -> contains t oid pair) acc
  | _ -> intersect acc (lookup t pair)

let query t pairs =
  Counter.incr c_queries;
  (if Trace.enabled () then fun f ->
     Trace.with_span ~layer:"index" ~op:"query"
       ~attrs:[ ("pairs", string_of_int (List.length pairs)) ]
       f
   else fun f -> f ())
  @@ fun () ->
  shared t @@ fun () ->
  match pairs with
  | [] -> []
  | _ ->
      (* Cheapest pair first, then narrow (scanning or probing). *)
      let ordered =
        pairs
        |> List.map (fun pair -> (selectivity t pair, pair))
        |> List.sort compare
      in
      (match ordered with
      | (_, first) :: rest ->
          List.fold_left (narrow t) (lookup t first) rest
      | [] -> [])

let lookup_prefix t tag prefix =
  traced_tag "lookup_prefix" tag @@ fun () ->
  shared t @@ fun () ->
  match tag with
  | Tag.Fulltext | Tag.Id -> raise (Unsupported_tag tag)
  | Tag.Posix | Tag.User | Tag.Udef | Tag.App | Tag.Custom _ ->
      Kv_index.lookup_prefix (kv_index t tag) prefix

(* --- maintenance ---------------------------------------------------------------- *)

let drop_object t oid =
  exclusive t (fun () ->
      List.iter
        (fun (tag, value) -> ignore (remove t oid tag value))
        (values_of t oid);
      Fulltext.remove_document t.fulltext oid;
      t.dirty <- Oid_set.remove oid t.dirty;
      t.unfit <- Oid_set.remove oid t.unfit)

let verify t =
  shared t (fun () ->
      List.iter (fun (_, kv) -> Kv_index.verify kv) (slices t);
      Fulltext.verify t.fulltext)
