(* Prometheus text exposition (version 0.0.4) synthesized from the
   registry's naming convention alone.

   A Histogram registers ordinary counters [<base>.le_<bound>],
   [<base>.le_inf], [<base>.count] and [<base>.sum]; everything else is
   a plain counter/gauge.  We re-group those families here and emit a
   proper [histogram] type with *cumulative* [_bucket{le="..."}] series
   (the stored buckets are per-bucket counts, so a running sum is taken
   in bound order).  Plain counters are exposed as untyped samples —
   several of ours are set-style gauges, so claiming [counter] would be
   a lie Prometheus cares about. *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]* — dots and dashes become '_'. *)
let sanitize name =
  let b = Buffer.create (String.length name + 1) in
  String.iteri
    (fun i c ->
      if i = 0 && c >= '0' && c <= '9' then Buffer.add_char b '_';
      Buffer.add_char b (if is_name_char c then c else '_'))
    name;
  Buffer.contents b

type family =
  | Plain of string * int  (* name, value *)
  | Histo of {
      base : string;
      buckets : (int * int) list;  (* bound, per-bucket count; sorted *)
      overflow : int;
      count : int;
      sum : int;
    }

let suffix_of ~base name =
  let bl = String.length base in
  if
    String.length name > bl + 1
    && String.sub name 0 bl = base
    && name.[bl] = '.'
  then Some (String.sub name (bl + 1) (String.length name - bl - 1))
  else None

let le_bound suffix =
  if String.length suffix > 3 && String.sub suffix 0 3 = "le_" then
    int_of_string_opt (String.sub suffix 3 (String.length suffix - 3))
  else None

(* Group the flat counter list into histogram families and plain
   counters.  A base qualifies as a histogram iff all four structural
   members exist ([le_inf], [count], [sum], >=1 bounded bucket). *)
let families counters =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (n, v) -> Hashtbl.replace tbl n v) counters;
  let bases = Hashtbl.create 16 in
  List.iter
    (fun (n, _) ->
      match String.rindex_opt n '.' with
      | Some i ->
          let base = String.sub n 0 i in
          let suffix = String.sub n (i + 1) (String.length n - i - 1) in
          if suffix = "le_inf" && Hashtbl.mem tbl (base ^ ".count")
             && Hashtbl.mem tbl (base ^ ".sum")
          then Hashtbl.replace bases base ()
      | None -> ())
    counters;
  let histos =
    Hashtbl.fold
      (fun base () acc ->
        let buckets =
          List.filter_map
            (fun (n, v) ->
              match suffix_of ~base n with
              | Some s -> ( match le_bound s with
                  | Some b -> Some (b, v)
                  | None -> None)
              | None -> None)
            counters
          |> List.sort compare
        in
        if buckets = [] then acc
        else
          Histo
            {
              base;
              buckets;
              overflow = Hashtbl.find tbl (base ^ ".le_inf");
              count = Hashtbl.find tbl (base ^ ".count");
              sum = Hashtbl.find tbl (base ^ ".sum");
            }
          :: acc)
      bases []
  in
  let member_of_histo n =
    match String.rindex_opt n '.' with
    | None -> false
    | Some i ->
        let base = String.sub n 0 i in
        Hashtbl.mem bases base
        &&
        let suffix = String.sub n (i + 1) (String.length n - i - 1) in
        suffix = "le_inf" || suffix = "count" || suffix = "sum"
        || le_bound suffix <> None
  in
  let plains =
    List.filter_map
      (fun (n, v) -> if member_of_histo n then None else Some (Plain (n, v)))
      counters
  in
  List.sort
    (fun a b ->
      let name = function Plain (n, _) -> n | Histo h -> h.base in
      compare (name a) (name b))
    (plains @ histos)

let emit_family b = function
  | Plain (n, v) ->
      let n = sanitize n in
      Buffer.add_string b (Printf.sprintf "# TYPE %s untyped\n%s %d\n" n n v)
  | Histo { base; buckets; overflow; count; sum } ->
      let n = sanitize base in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let acc = ref 0 in
      List.iter
        (fun (bound, v) ->
          acc := !acc + v;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n bound !acc))
        buckets;
      ignore overflow;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n count);
      Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n count)

(* The runtime's collector counters, process-wide like the global
   registry they live in. Registered at start-up, so the registry's
   size does not move on the first exposition. *)
let gc_minor_collections = Registry.counter Registry.global "gc.minor_collections"
let gc_major_collections = Registry.counter Registry.global "gc.major_collections"
let gc_minor_words = Registry.counter Registry.global "gc.minor_words"
let gc_top_heap_words = Registry.counter Registry.global "gc.top_heap_words"

let set_gc_counters () =
  let s = Gc.quick_stat () in
  Counter.set gc_minor_collections s.Gc.minor_collections;
  Counter.set gc_major_collections s.Gc.major_collections;
  Counter.set gc_minor_words (int_of_float s.Gc.minor_words);
  Counter.set gc_top_heap_words s.Gc.top_heap_words

let expose ?(registry = Registry.global) () =
  if registry == Registry.global then set_gc_counters ();
  let b = Buffer.create 4096 in
  List.iter (emit_family b) (families (Registry.counters registry));
  Buffer.contents b

let pp fmt registry =
  Format.pp_print_string fmt (expose ~registry ())

(* Minimal exposition parser, enough for round-trip tests and the
   [hfadctl metrics] smoke path: returns every sample as
   (series-name-with-labels, value), comments skipped. *)
let parse_text text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
               let series = String.sub line 0 i in
               let value =
                 String.sub line (i + 1) (String.length line - i - 1)
               in
               Option.map (fun v -> (series, v)) (int_of_string_opt value))
