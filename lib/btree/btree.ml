module Pager = Hfad_pager.Pager
module Counter = Hfad_metrics.Counter
module Registry = Hfad_metrics.Registry
module Strx = Hfad_util.Strx
module Rwlock = Hfad_util.Rwlock
module Trace = Hfad_trace.Trace

exception Key_too_large of int
exception Value_too_large of int

type allocator = { alloc_page : unit -> int; free_page : int -> unit }

type stats = {
  descents : int;
  nodes_visited : int;
  splits : int;
  merges : int;
  rebalances : int;
}

type t = {
  pager : Pager.t;
  alloc : allocator;
  root : int;
  lock : Rwlock.t option;
  (* Atomic: concurrent shared-side descents bump these in parallel. *)
  descents : int Atomic.t;
  nodes_visited : int Atomic.t;
  splits : int Atomic.t;
  merges : int Atomic.t;
  rebalances : int Atomic.t;
}

(* Locking discipline: every public read entry point holds the shared
   side of [lock] (when one was supplied), every mutating entry point the
   exclusive side. The lock is reentrant, so trees stacked under an OSD
   that already holds a side nest for free. *)
let shared t f =
  match t.lock with None -> f () | Some l -> Rwlock.with_shared l f

let exclusive t f =
  match t.lock with None -> f () | Some l -> Rwlock.with_exclusive l f

let global_descents = Registry.counter Registry.global "btree.descents"
let global_nodes = Registry.counter Registry.global "btree.nodes_visited"

let root t = t.root
let max_key_size t = (Pager.page_size t.pager / 8) - 8
let max_value_size t = Pager.page_size t.pager / 4
let page_size t = Pager.page_size t.pager
let min_node_size t = Pager.page_size t.pager / 4

(* One node visit, the paper's "index traversal": count it and run [f]
   on the page's bytes. *)
let count_visit t =
  Atomic.incr t.nodes_visited;
  Counter.incr global_nodes

let visit t page_no f =
  count_visit t;
  Pager.with_page t.pager page_no f

(* A visited node decoded whole, for the paths that restructure it. *)
let load t page_no = visit t page_no Node.decode

let store t page_no node =
  Pager.with_page_mut t.pager page_no (fun page -> Node.encode node page)

(* What one visit on the way down finds: the leaf's answer, or the child
   to visit next. *)
type 'a step = Leaf of 'a | Child of int

(* Visit [page_no] on the way to [key]'s leaf, where [at_leaf] answers
   from the page bytes. *)
let step t page_no key at_leaf =
  visit t page_no (fun page ->
      if Node.is_leaf page then Leaf (at_leaf page)
      else Child (Node.child_for page key))

let begin_descent t =
  Atomic.incr t.descents;
  Counter.incr global_descents

let mk_handle ?lock pager alloc ~root =
  {
    pager;
    alloc;
    root;
    lock;
    descents = Atomic.make 0;
    nodes_visited = Atomic.make 0;
    splits = Atomic.make 0;
    merges = Atomic.make 0;
    rebalances = Atomic.make 0;
  }

let create ?lock pager alloc ~root =
  let t = mk_handle ?lock pager alloc ~root in
  exclusive t (fun () -> store t root (Node.empty_leaf ()));
  t

let open_tree ?lock pager alloc ~root = mk_handle ?lock pager alloc ~root

(* --- small array helpers ------------------------------------------- *)

let array_insert arr i x =
  let n = Array.length arr in
  Array.init (n + 1) (fun j ->
      if j < i then arr.(j) else if j = i then x else arr.(j - 1))

let array_remove arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

(* Index of child page [child] in [children]. *)
let child_index children child =
  Option.get (Array.find_index (Int.equal child) children)

(* The decoded internal node at [page_no], whose visit the caller has
   already counted. *)
let internal_at t page_no =
  match Pager.with_page t.pager page_no Node.decode with
  | Node.Internal { keys; children } -> (keys, children)
  | Node.Leaf _ -> assert false

(* --- lookup --------------------------------------------------------- *)

let check_key t k =
  if String.length k > max_key_size t then raise (Key_too_large (String.length k))

let check_value t v =
  if String.length v > max_value_size t then
    raise (Value_too_large (String.length v))

(* Wrap one public tree operation in a span: the [root] attr identifies
   the index structure (O1 counts distinct roots to reproduce §2.3's
   traversal count) and [nodes] records the pages this operation
   visited. *)
let traced t ~op f =
  if not (Trace.enabled ()) then f ()
  else
    Trace.with_span ~layer:"btree" ~op
      ~attrs:[ ("root", string_of_int t.root) ]
      (fun () ->
        let before = Atomic.get t.nodes_visited in
        let v = f () in
        Trace.add_attr_int "nodes" (Atomic.get t.nodes_visited - before);
        v)

(* A traced find names the page it visits at depth [d] in attr "l<d>". *)
let level_attrs = Array.init 16 (Printf.sprintf "l%d")

let level_attr depth =
  if depth < Array.length level_attrs then level_attrs.(depth)
  else Printf.sprintf "l%d" depth

let binding_at page pos = if pos < 0 then None else Some (Node.binding page pos)

let value_of key page =
  let pos = Node.search page key in
  if pos < 0 then None else Some (Node.value_at page pos)

let rec find_rec t depth page_no key =
  if Trace.enabled () then Trace.add_attr_int (level_attr depth) page_no;
  match step t page_no key (value_of key) with
  | Leaf v -> v
  | Child c -> find_rec t (depth + 1) c key

let find t key =
  traced t ~op:"find" (fun () ->
      shared t (fun () ->
          begin_descent t;
          find_rec t 0 t.root key))

let mem t key = Option.is_some (find t key)

(* --- restructuring ------------------------------------------------------ *)

(* Choose a cut index in [1, n-1]: elements [0, cut) go left. The cut is
   the first prefix that weighs at least half of [total], if both sides
   then weigh between [lo] and [hi]; otherwise it is the cut nearest half
   that keeps them there. [weight i] is the encoded size of element [i]. *)
let size_cut ~lo ~hi ~n ~total ~weight =
  let prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) + weight i
  done;
  let fits c =
    let left = prefix.(c) and right = total - prefix.(c) in
    lo <= left && left <= hi && lo <= right && right <= hi
  in
  let half = total / 2 in
  let rec first c = if c >= n - 1 || prefix.(c) >= half then c else first (c + 1) in
  let cut = max 1 (first 1) in
  if fits cut then cut
  else begin
    let distance c = abs (prefix.(c) - half) in
    let best = ref cut in
    for c = 1 to n - 1 do
      if fits c && ((not (fits !best)) || distance c < distance !best) then best := c
    done;
    !best
  end

(* Leaf halves must fit the page and keep the minimum fill. An entry,
   with its varint lengths and its 2-byte slot, is at most 3/8 of a page
   (a key of [page/8 - 8] bytes and a value of [page/4]: 25 + 65 + 2 <= 96
   on 256-byte pages), so some cut always does both. *)
let leaf_cut t ~n ~total ~weight =
  size_cut
    ~lo:(min_node_size t - Node.header_size)
    ~hi:(page_size t - Node.header_size)
    ~n ~total ~weight

(* Sorted [entries] with [key] bound to [value]. *)
let with_binding entries key value =
  let below =
    Array.fold_left
      (fun n (k, _) -> if String.compare k key < 0 then n + 1 else n)
      0 entries
  in
  if below < Array.length entries && fst entries.(below) = key then begin
    let entries = Array.copy entries in
    entries.(below) <- (key, value);
    entries
  end
  else array_insert entries below (key, value)

let split_leaf t page_no entries next =
  Atomic.incr t.splits;
  let n = Array.length entries in
  let total =
    Array.fold_left (fun acc (k, v) -> acc + Node.leaf_entry_size k v) 0 entries
  in
  let cut =
    leaf_cut t ~n ~total ~weight:(fun i ->
        let k, v = entries.(i) in
        Node.leaf_entry_size k v)
  in
  let left_entries = Array.sub entries 0 cut in
  let right_entries = Array.sub entries cut (n - cut) in
  let right_page = t.alloc.alloc_page () in
  store t right_page (Node.Leaf { entries = right_entries; next });
  store t page_no (Node.Leaf { entries = left_entries; next = Some right_page });
  (fst right_entries.(0), right_page)

let split_internal t page_no keys children =
  Atomic.incr t.splits;
  let n = Array.length keys in
  let total =
    Array.fold_left (fun acc k -> acc + Node.internal_entry_size k) 0 keys
  in
  let mid =
    size_cut ~lo:0 ~hi:max_int ~n ~total ~weight:(fun i ->
        Node.internal_entry_size keys.(i))
  in
  (* Clamp so that both sides keep at least one key. *)
  let mid = max 1 (min (n - 2) mid) in
  let promoted = keys.(mid) in
  let left_keys = Array.sub keys 0 mid in
  let left_children = Array.sub children 0 (mid + 1) in
  let right_keys = Array.sub keys (mid + 1) (n - mid - 1) in
  let right_children = Array.sub children (mid + 1) (n - mid) in
  let right_page = t.alloc.alloc_page () in
  store t right_page (Node.Internal { keys = right_keys; children = right_children });
  store t page_no (Node.Internal { keys = left_keys; children = left_children });
  (promoted, right_page)

let node_underflows t node = Node.encoded_size node < min_node_size t

(* Merge or rebalance leaf siblings [li] and [li+1] of [parent]. *)
let fix_leaf_pair t ~left_page ~right_page ~left ~right =
  let left_entries, left_next =
    match left with
    | Node.Leaf { entries; next } -> (entries, next)
    | Node.Internal _ -> assert false
  in
  let right_entries, right_next =
    match right with
    | Node.Leaf { entries; next } -> (entries, next)
    | Node.Internal _ -> assert false
  in
  ignore left_next;
  let combined = Array.append left_entries right_entries in
  let merged = Node.Leaf { entries = combined; next = right_next } in
  if Node.encoded_size merged <= page_size t then begin
    Atomic.incr t.merges;
    store t left_page merged;
    t.alloc.free_page right_page;
    `Merged
  end
  else begin
    Atomic.incr t.rebalances;
    let n = Array.length combined in
    let total =
      Array.fold_left
        (fun acc (k, v) -> acc + Node.leaf_entry_size k v)
        0 combined
    in
    let cut =
      leaf_cut t ~n ~total ~weight:(fun i ->
          let k, v = combined.(i) in
          Node.leaf_entry_size k v)
    in
    let new_left = Array.sub combined 0 cut in
    let new_right = Array.sub combined cut (n - cut) in
    store t left_page (Node.Leaf { entries = new_left; next = Some right_page });
    store t right_page (Node.Leaf { entries = new_right; next = right_next });
    `Rebalanced (fst new_right.(0))
  end

(* Merge or rebalance internal siblings around parent separator [sep]. *)
let fix_internal_pair t ~left_page ~right_page ~left ~right ~sep =
  let lkeys, lchildren =
    match left with
    | Node.Internal { keys; children } -> (keys, children)
    | Node.Leaf _ -> assert false
  in
  let rkeys, rchildren =
    match right with
    | Node.Internal { keys; children } -> (keys, children)
    | Node.Leaf _ -> assert false
  in
  let keys = Array.concat [ lkeys; [| sep |]; rkeys ] in
  let children = Array.append lchildren rchildren in
  let merged = Node.Internal { keys; children } in
  if Node.encoded_size merged <= page_size t then begin
    Atomic.incr t.merges;
    store t left_page merged;
    t.alloc.free_page right_page;
    `Merged
  end
  else begin
    Atomic.incr t.rebalances;
    let n = Array.length keys in
    let total =
      Array.fold_left (fun acc k -> acc + Node.internal_entry_size k) 0 keys
    in
    let mid =
      size_cut ~lo:0 ~hi:max_int ~n ~total ~weight:(fun i ->
        Node.internal_entry_size keys.(i))
    in
    let mid = max 1 (min (n - 2) mid) in
    let promoted = keys.(mid) in
    store t left_page
      (Node.Internal
         { keys = Array.sub keys 0 mid; children = Array.sub children 0 (mid + 1) });
    store t right_page
      (Node.Internal
         {
           keys = Array.sub keys (mid + 1) (n - mid - 1);
           children = Array.sub children (mid + 1) (n - mid);
         });
    `Rebalanced promoted
  end

(* Child [ci] of the internal node [(keys, children)] underflowed; repair
   with a sibling and return the updated (keys, children). *)
let fix_child t keys children ci =
  let li = if ci > 0 then ci - 1 else ci in
  let left_page = children.(li) and right_page = children.(li + 1) in
  let left = load t left_page and right = load t right_page in
  let outcome =
    match left with
    | Node.Leaf _ -> fix_leaf_pair t ~left_page ~right_page ~left ~right
    | Node.Internal _ ->
        fix_internal_pair t ~left_page ~right_page ~left ~right ~sep:keys.(li)
  in
  match outcome with
  | `Merged -> (array_remove keys li, array_remove children (li + 1))
  | `Rebalanced sep ->
      let keys = Array.copy keys in
      keys.(li) <- sep;
      (keys, children)

(* --- updates ----------------------------------------------------------

   A put or remove descends in place and changes its leaf's bytes in
   place. Only when the leaf outgrows its page or falls below a quarter
   page do the nodes involved get decoded, restructured and re-encoded,
   and each parent on the way back up absorbs what its child reports. *)

type change =
  | Fits
  | Split of string * int  (** separator and new right sibling *)
  | Underfull  (** below a quarter page after shrinking *)

(* Store internal node [(keys, children)] at [page_no], splitting it if it
   outgrew the page. Only a node that [shrank] can report [Underfull]. *)
let rewrite t page_no keys children ~shrank =
  let node = Node.Internal { keys; children } in
  if Node.encoded_size node > page_size t then
    let sep, right_page = split_internal t page_no keys children in
    Split (sep, right_page)
  else begin
    store t page_no node;
    if shrank && (Array.length keys = 0 || node_underflows t node) then Underfull
    else Fits
  end

(* The internal node at [page_no] absorbs what happened to its [child]. *)
let absorb t page_no child = function
  | Fits -> Fits
  | Split (sep, right_page) ->
      let keys, children = internal_at t page_no in
      let ci = child_index children child in
      rewrite t page_no (array_insert keys ci sep)
        (array_insert children (ci + 1) right_page)
        ~shrank:false
  | Underfull ->
      let keys, children = internal_at t page_no in
      let keys, children = fix_child t keys children (child_index children child) in
      rewrite t page_no keys children ~shrank:true

(* Descend to [key]'s leaf and run [at_leaf page_no pos] there, [pos]
   being [Node.search]'s answer on the leaf. *)
let rec update_rec t page_no key at_leaf =
  match step t page_no key (fun page -> Node.search page key) with
  | Leaf pos -> at_leaf page_no pos
  | Child child -> absorb t page_no child (update_rec t child key at_leaf)

(* A leaf that is not the root must stay at least a quarter full. *)
let leaf_change t page_no used =
  if used < min_node_size t && page_no <> t.root then Underfull else Fits

let put_leaf t key value page_no pos =
  let grown =
    Pager.with_page_mut t.pager page_no (fun page ->
        let used = Node.put_at page pos key value in
        if used >= 0 then Ok used else Error (Node.decode page))
  in
  match grown with
  | Ok used -> leaf_change t page_no used
  | Error (Node.Leaf { entries; next }) ->
      let sep, right_page = split_leaf t page_no (with_binding entries key value) next in
      Split (sep, right_page)
  | Error (Node.Internal _) -> assert false

(* Collapse a root that routes to a single child. *)
let collapse_root t =
  let only_child =
    visit t t.root (fun page ->
        if Node.is_leaf page || Node.nkeys page > 0 then None
        else Some (Node.child page 0))
  in
  match only_child with
  | Some only ->
      let child = load t only in
      store t t.root child;
      t.alloc.free_page only
  | None -> ()

(* Anchored root: after a root split the root page holds the left half;
   move it to a fresh page and rewrite the root as a two-child
   internal. *)
let grow_root t sep right_page =
  let left_page = t.alloc.alloc_page () in
  let left_node = load t t.root in
  store t left_page left_node;
  store t t.root
    (Node.Internal { keys = [| sep |]; children = [| left_page; right_page |] })

(* What a root descent reports, absorbed at the root. *)
let settle_root t = function
  | Fits -> ()
  | Underfull -> collapse_root t
  | Split (sep, right_page) -> grow_root t sep right_page

(* One root descent to [key]'s leaf that binds it to [value], splitting
   on the way back up as needed. *)
let put_descent t key value =
  begin_descent t;
  settle_root t (update_rec t t.root key (put_leaf t key value))

let put t ~key ~value =
  check_key t key;
  check_value t value;
  traced t ~op:"put" @@ fun () -> exclusive t (fun () -> put_descent t key value)

let remove t key =
  traced t ~op:"remove" @@ fun () ->
  exclusive t (fun () ->
      begin_descent t;
      let deleted = ref false in
      let remove_leaf page_no pos =
        if pos < 0 then Fits
        else begin
          deleted := true;
          leaf_change t page_no
            (Pager.with_page_mut t.pager page_no (fun page -> Node.remove_at page pos))
        end
      in
      (* A repair can lengthen a separator until the root splits. *)
      (match update_rec t t.root key remove_leaf with
      | Split (sep, right_page) -> grow_root t sep right_page
      | Fits | Underfull -> collapse_root t);
      !deleted)

(* --- sorted batches -----------------------------------------------------

   A batch walks its keys left to right. It stays on a leaf while the
   next key is at most the leaf's last key, or the leaf has no right
   sibling: the previous key routed there, and leaves partition the key
   space, so the next one does too. A change that fits is made in place,
   under the one pin of the leaf that its descent took. A put that does
   not fit the page leaves it untouched and takes the ordinary root
   descent, which splits; a change that leaves the leaf below a quarter
   page takes a root descent to the same leaf, which repairs it as
   [remove] would. Either way the next key descends afresh. *)

type batch_stop =
  | Beyond  (** the next key lies past this leaf, or the batch is done *)
  | Overflows of string * string  (** a put the leaf cannot take *)
  | Underfull_at of string  (** the leaf fell below its minimum fill *)

(* Does a batch's next key, found at [pos] ([Node.search]), lie in this
   leaf? The first key does: the descent came for it. *)
let stays page ~first pos =
  first || pos >= 0 || -pos - 1 < Node.nkeys page || Option.is_none (Node.next_leaf page)

(* Apply the changes of [pending] that lie in leaf [page_no], in place.
   The first one does: the caller descended for it. Returns why it
   stopped, and whether it wrote the page. *)
let apply_in_leaf t page_no page pending =
  let wrote = ref false in
  let rec go ~first =
    match !pending with
    | [] -> Beyond
    | (key, f) :: rest ->
        let pos = Node.search page key in
        if not (stays page ~first pos) then Beyond
        else begin
          pending := rest;
          let old = if pos >= 0 then Some (Node.value_at page pos) else None in
          let next = f old in
          match next with
          | _ when Option.equal String.equal old next -> go ~first:false
          | Some value ->
              check_value t value;
              let used = Node.put_at page pos key value in
              if used < 0 then Overflows (key, value)
              else begin
                wrote := true;
                match leaf_change t page_no used with
                | Fits -> go ~first:false
                | Underfull | Split _ -> Underfull_at key
              end
          | None -> (
              wrote := true;
              match leaf_change t page_no (Node.remove_at page pos) with
              | Fits -> go ~first:false
              | Underfull | Split _ -> Underfull_at key)
        end
  in
  let stop = go ~first:true in
  (stop, !wrote)

(* Descend to the leaf of [pending]'s first key, counting the visits,
   and apply there what lies in that leaf. *)
let rec batch_descent t page_no key pending =
  count_visit t;
  let step =
    Pager.with_page_update t.pager page_no (fun page ->
        if Node.is_leaf page then
          let stop, wrote = apply_in_leaf t page_no page pending in
          (Leaf stop, wrote)
        else (Child (Node.child_for page key), false))
  in
  match step with
  | Leaf stop -> stop
  | Child child -> batch_descent t child key pending

let rec strictly_ascending = function
  | (a, _) :: ((b, _) :: _ as rest) ->
      String.compare a b < 0 && strictly_ascending rest
  | [ _ ] | [] -> true

let apply_sorted t changes =
  List.iter (fun (key, _) -> check_key t key) changes;
  if not (strictly_ascending changes) then
    invalid_arg "Btree.apply_sorted: keys not strictly ascending";
  traced t ~op:"apply" @@ fun () ->
  exclusive t @@ fun () ->
  let pending = ref changes in
  let rec pass () =
    match !pending with
    | [] -> ()
    | (key, _) :: _ ->
        begin_descent t;
        (match batch_descent t t.root key pending with
        | Beyond -> ()
        | Overflows (key, value) -> put_descent t key value
        | Underfull_at key ->
            begin_descent t;
            settle_root t (update_rec t t.root key (fun _ _ -> Underfull)));
        pass ()
  in
  pass ()

(* --- footprint -----------------------------------------------------------

   The pages [apply_sorted] would dirty, counted without writing. The
   walk is the batch's own: it stays on a leaf by the same rule
   ([stays]) and descends from the root otherwise (a run of keys past a
   leaf's last key descends to that leaf once per key). It counts each
   distinct leaf it lands on and each internal node its descents pass
   through, and allows for what a restructure adds: the pages a leaf's
   growth splits off (half a page of overflow each), the sibling of a
   leaf that may fall below its minimum fill, and an internal page per
   eight new leaves. A new entry is bounded by its key, the longest
   value its change may bind, a length byte pair each and its slot; a
   rebinding of a key already present is taken as no growth. *)

let footprint t changes =
  if not (strictly_ascending changes) then
    invalid_arg "Btree.footprint: keys not strictly ascending";
  traced t ~op:"footprint" @@ fun () ->
  shared t @@ fun () ->
  let half = page_size t / 2 in
  let internals = Hashtbl.create 8 in
  (* leaf page -> (bytes used, bytes it may gain, bytes it may lose) *)
  let leaves = Hashtbl.create 16 in
  (* Take the changes that land in leaf [page_no]; return the rest. *)
  let in_leaf page_no page pending =
    let rec take ~first grow freed pending =
      match pending with
      | [] -> (grow, freed, [])
      | (key, bound) :: rest ->
          let pos = Node.search page key in
          if not (stays page ~first pos) then (grow, freed, pending)
          else begin
            match bound with
            | Some n when pos < 0 ->
                take ~first:false (grow + String.length key + n + 6) freed rest
            | None when pos >= 0 ->
                take ~first:false grow
                  (freed + Node.leaf_entry_size key (Node.value_at page pos))
                  rest
            | Some _ | None -> take ~first:false grow freed rest
          end
    in
    let grow, freed, rest = take ~first:true 0 0 pending in
    let _, g, f =
      Option.value ~default:(Node.used page, 0, 0) (Hashtbl.find_opt leaves page_no)
    in
    Hashtbl.replace leaves page_no (Node.used page, g + grow, f + freed);
    rest
  in
  let rec descend page_no key pending =
    match step t page_no key (fun page -> in_leaf page_no page pending) with
    | Leaf rest -> rest
    | Child child ->
        Hashtbl.replace internals page_no ();
        descend child key pending
  in
  let rec pass = function
    | [] -> ()
    | (key, _) :: _ as pending ->
        begin_descent t;
        pass (descend t.root key pending)
  in
  pass changes;
  let split_off, siblings =
    Hashtbl.fold
      (fun page_no (used, grow, freed) (split_off, siblings) ->
        let used = used + grow in
        ( (if used > 2 * half then split_off + ((used - (2 * half) + half - 1) / half)
           else split_off),
          if freed > 0 && page_no <> t.root && used - freed < min_node_size t then
            siblings + 1
          else siblings ))
      leaves (0, 0)
  in
  Hashtbl.length leaves + Hashtbl.length internals + split_off + siblings
  + ((split_off + 7) / 8)

(* --- ordered access -------------------------------------------------- *)

exception Stop

let fold_range t ?lo ?hi ~init f =
  traced t ~op:"range" @@ fun () ->
  shared t @@ fun () ->
  begin_descent t;
  let acc = ref init in
  (* Fold [f] over the leaf's entries from index [i] on, stopping the
     whole range at the first key [>= hi]; return the next leaf. [acc]
     is updated entry by entry, as [f] may raise [Stop] itself. *)
  let fold_leaf page i =
    let n = Node.nkeys page in
    let stop = match hi with Some h -> Node.lower_bound page h | None -> n in
    Node.fold_into page i (max i stop) f acc;
    if stop < n then raise Stop;
    Node.next_leaf page
  in
  let rec down page_no =
    let next =
      visit t page_no (fun page ->
          if Node.is_leaf page then
            Leaf (fold_leaf page (match lo with Some l -> Node.lower_bound page l | None -> 0))
          else Child (match lo with Some l -> Node.child_for page l | None -> Node.child page 0))
    in
    match next with Leaf next -> along next | Child c -> down c
  and along = function
    | Some page_no -> along (visit t page_no (fun page -> fold_leaf page 0))
    | None -> ()
  in
  (try down t.root with Stop -> ());
  !acc

let iter_range t ?lo ?hi f =
  fold_range t ?lo ?hi ~init:() (fun () k v -> f k v)

let seek t key =
  fold_range t ~lo:key ~init:None (fun acc k v ->
      match acc with Some _ -> raise Stop | None -> Some (k, v))

let next_after t key =
  fold_range t ~lo:key ~init:None (fun acc k v ->
      match acc with
      | Some _ -> raise Stop
      | None -> if k = key then None else Some (k, v))

let rec rightmost_binding t page_no =
  match
    visit t page_no (fun page ->
        if Node.is_leaf page then Leaf (binding_at page (Node.nkeys page - 1))
        else Child (Node.child page (Node.nkeys page)))
  with
  | Leaf b -> b
  | Child c -> rightmost_binding t c

let floor_binding t key =
  traced t ~op:"floor" @@ fun () ->
  shared t @@ fun () ->
  begin_descent t;
  (* Descend toward [key], remembering the nearest subtree entirely to the
     left of the taken branch; fall back to its maximum when the leaf has
     no entry <= key. *)
  let fallback = ref None in
  let rec go page_no =
    match
      visit t page_no (fun page ->
          if Node.is_leaf page then Leaf (binding_at page (Node.floor_entry page key))
          else begin
            let ci = Node.route page key in
            if ci > 0 then fallback := Some (Node.child page (ci - 1));
            Child (Node.child page ci)
          end)
    with
    | Leaf (Some _ as b) -> b
    | Leaf None -> Option.bind !fallback (rightmost_binding t)
    | Child c -> go c
  in
  go t.root

let fold_prefix t ~prefix ~init f =
  match Strx.next_prefix prefix with
  | Some hi -> fold_range t ~lo:prefix ~hi ~init f
  | None -> fold_range t ~lo:prefix ~init f

let min_binding t =
  fold_range t ~init:None (fun acc k v ->
      match acc with Some _ -> raise Stop | None -> Some (k, v))

let max_binding t =
  fold_range t ~init:None (fun _ k v -> Some (k, v))

let to_list t =
  List.rev (fold_range t ~init:[] (fun acc k v -> (k, v) :: acc))

let cardinal t = fold_range t ~init:0 (fun acc _ _ -> acc + 1)
let is_empty t = Option.is_none (min_binding t)

(* The child page numbers of the node at [page_no]; none for a leaf. *)
let children_of t page_no = visit t page_no Node.children

let rec free_subtree t page_no =
  Array.iter (free_subtree t) (children_of t page_no);
  t.alloc.free_page page_no

let clear t =
  exclusive t (fun () ->
      Array.iter (free_subtree t) (children_of t t.root);
      store t t.root (Node.empty_leaf ()))

let destroy t =
  exclusive t (fun () ->
      clear t;
      t.alloc.free_page t.root)

(* --- measurement and validation -------------------------------------- *)

let stats t =
  {
    descents = Atomic.get t.descents;
    nodes_visited = Atomic.get t.nodes_visited;
    splits = Atomic.get t.splits;
    merges = Atomic.get t.merges;
    rebalances = Atomic.get t.rebalances;
  }

let reset_stats t =
  Atomic.set t.descents 0;
  Atomic.set t.nodes_visited 0;
  Atomic.set t.splits 0;
  Atomic.set t.merges 0;
  Atomic.set t.rebalances 0

let height t =
  let rec depth page_no =
    match
      visit t page_no (fun page ->
          if Node.is_leaf page then None else Some (Node.child page 0))
    with
    | None -> 1
    | Some child -> 1 + depth child
  in
  shared t (fun () -> depth t.root)

let fold_pages t ~init f =
  let rec walk acc page_no =
    Array.fold_left walk (f acc page_no) (children_of t page_no)
  in
  shared t (fun () -> walk init t.root)

let verify t =
  shared t @@ fun () ->
  let fail fmt = Format.kasprintf failwith fmt in
  let leaves = ref [] in
  (* Walk the tree checking sizes, ordering and separator bounds; collect
     leaf pages in in-order sequence. Bounds are half-open: every key in
     the subtree must satisfy lo <= key < hi. *)
  let check_sorted page_no keys =
    Array.iteri
      (fun i k ->
        if i > 0 && String.compare keys.(i - 1) k >= 0 then
          fail "page %d: keys out of order at %d" page_no i)
      keys
  in
  let in_bounds page_no lo hi k =
    (match lo with
    | Some l when String.compare k l < 0 ->
        fail "page %d: key below lower bound" page_no
    | Some _ | None -> ());
    match hi with
    | Some h when String.compare k h >= 0 ->
        fail "page %d: key above upper bound" page_no
    | Some _ | None -> ()
  in
  let rec walk page_no lo hi ~is_root =
    let node, mismatch =
      visit t page_no (fun page -> (Node.decode page, Node.slot_mismatch page))
    in
    Option.iter (fail "page %d: slot %d is not its entry's offset" page_no) mismatch;
    let size = Node.encoded_size node in
    if size > page_size t then fail "page %d: oversized node (%d)" page_no size;
    if (not is_root) && node_underflows t node then
      fail "page %d: underfull non-root node (%d bytes)" page_no size;
    match node with
    | Node.Leaf { entries; next } ->
        check_sorted page_no (Array.map fst entries);
        Array.iter (fun (k, _) -> in_bounds page_no lo hi k) entries;
        leaves := (page_no, next) :: !leaves;
        1
    | Node.Internal { keys; children } ->
        if Array.length keys = 0 && not is_root then
          fail "page %d: keyless non-root internal node" page_no;
        if Array.length children <> Array.length keys + 1 then
          fail "page %d: children/keys arity mismatch" page_no;
        check_sorted page_no keys;
        Array.iter (fun k -> in_bounds page_no lo hi k) keys;
        let depths =
          Array.to_list children
          |> List.mapi (fun i child ->
                 let child_lo = if i = 0 then lo else Some keys.(i - 1) in
                 let child_hi =
                   if i = Array.length keys then hi else Some keys.(i)
                 in
                 walk child child_lo child_hi ~is_root:false)
        in
        (match depths with
        | d :: rest ->
            List.iter
              (fun d' -> if d <> d' then fail "page %d: uneven leaf depth" page_no)
              rest;
            d + 1
        | [] -> fail "page %d: internal node with no children" page_no)
  in
  let _depth = walk t.root None None ~is_root:true in
  (* The leaf chain must equal the in-order leaf sequence. *)
  let in_order = List.rev !leaves in
  let rec check_chain = function
    | (page, next) :: ((page', _) :: _ as rest) ->
        (match next with
        | Some n when n = page' -> ()
        | Some n -> fail "leaf %d: next=%d but in-order successor is %d" page n page'
        | None -> fail "leaf %d: chain ends early" page);
        check_chain rest
    | [ (_, Some n) ] -> fail "last leaf points to %d" n
    | [ (_, None) ] | [] -> ()
  in
  check_chain in_order
