module Osd = Hfad_osd.Osd
module Oid = Hfad_osd.Oid
module Meta = Hfad_osd.Meta
module Btree = Hfad_btree.Btree
module Fulltext = Hfad_fulltext.Fulltext
module Oid_set = Set.Make (Oid)
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
         and written under [lock]. *)
  kv : (string, Kv_index.t) Hashtbl.t;
  kv_mutex : Mutex.t;  (* guards the [kv] slice cache only *)
  lock : Rwlock.t;
      (* The owning OSD's lock: queries take the shared side, index
         mutations the exclusive side, so index state and object state
         stay mutually consistent under concurrent domains. *)
  image : Image_index.t;
}

let shared t f = Rwlock.with_shared t.lock f
let exclusive t f = Rwlock.with_exclusive t.lock f

let c_lookups = Registry.counter Registry.global "index.lookups"
let c_queries = Registry.counter Registry.global "index.queries"

let image_tag = Tag.Custom "IMAGE"

let create osd =
  let attrs = Osd.named_tree osd "attrs" in
  let ft_tree = Osd.named_tree osd "fulltext" in
  let fulltext = Fulltext.create ft_tree in
  {
    osd;
    attrs;
    fulltext;
    dirty = Oid_set.empty;
    kv = Hashtbl.create 8;
    kv_mutex = Mutex.create ();
    lock = Osd.rwlock osd;
    image = Image_index.create attrs ~namespace:(Tag.to_string image_tag);
  }

let kv_index t tag =
  match tag with
  | Tag.Fulltext | Tag.Id -> raise (Unsupported_tag tag)
  | Tag.Posix | Tag.User | Tag.Udef | Tag.App | Tag.Custom _ ->
      let name = Tag.to_string tag in
      Mutex.lock t.kv_mutex;
      let kv =
        match Hashtbl.find_opt t.kv name with
        | Some kv -> kv
        | None ->
            let kv = Kv_index.create t.attrs ~namespace:name in
            Hashtbl.replace t.kv name kv;
            kv
      in
      Mutex.unlock t.kv_mutex;
      kv

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

let values_of t oid =
  shared t @@ fun () ->
  (* The image plug-in shares the attribute tree, so its namespace is
     covered by iterating the registered KV slices plus IMAGE. *)
  let tags =
    image_tag
    :: List.filter
         (fun tag -> match tag with Tag.Fulltext | Tag.Id -> false | _ -> true)
         Tag.builtin
  in
  let custom =
    Hashtbl.fold
      (fun name _ acc ->
        let tag = Tag.of_string name in
        if List.exists (Tag.equal tag) tags then acc else tag :: acc)
      t.kv []
  in
  List.concat_map
    (fun tag ->
      List.map (fun v -> (tag, v)) (Kv_index.values_of (kv_index t tag) oid))
    (tags @ custom)
  |> List.sort (fun (ta, va) (tb, vb) ->
         match Tag.compare ta tb with 0 -> String.compare va vb | c -> c)

(* --- content indexing ------------------------------------------------------ *)

(* The full-text index is a view of the objects' current bytes. A
   mutation only marks its object; a drain recomputes each marked
   object's postings from what the object holds at that moment, so k
   mutations before a drain cost one reindex, and a drain can never
   bring back the postings of a deleted object. *)
let mark_dirty t oid =
  exclusive t (fun () -> t.dirty <- Oid_set.add oid t.dirty)

let backlog t = shared t (fun () -> Oid_set.cardinal t.dirty)

(* One metadata lookup decides: a regular object is indexed from its
   bytes; a deleted object, a directory or a symlink loses its postings. *)
let reindex t oid =
  match Osd.metadata t.osd oid with
  | { Meta.kind = Meta.Regular; size; _ } ->
      Fulltext.add_document t.fulltext oid (Osd.read t.osd oid ~off:0 ~len:size)
  | { Meta.kind = Meta.Directory | Meta.Symlink; _ }
  | (exception Osd.No_such_object _) ->
      Fulltext.remove_document t.fulltext oid

(* Ascending OID order: postings keys end in the OID, so a bulk load
   appends each term's new postings at the right edge of its key range.
   Any other order packs the postings pages differently. *)
let drain ?(max_items = max_int) t =
  exclusive t @@ fun () ->
  let rec go n =
    match Oid_set.min_elt_opt t.dirty with
    | Some oid when n < max_items ->
        reindex t oid;
        t.dirty <- Oid_set.remove oid t.dirty;
        go (n + 1)
    | Some _ | None -> n
  in
  go 0

let fulltext t = t.fulltext
let image t = t.image

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
      Fulltext.remove_document t.fulltext oid)

let verify t =
  shared t (fun () ->
      Hashtbl.iter (fun _ kv -> Kv_index.verify kv) t.kv;
      Kv_index.verify (Image_index.kv t.image);
      Fulltext.verify t.fulltext)
