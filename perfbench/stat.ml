(* Percentiles, counter deltas and the derived per-layer metrics. *)

module Prometheus = Hfad_metrics.Prometheus

(* Nearest-rank percentile of [samples], [p] in (0, 1]; 0 when empty. *)
let percentile p samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) rank))

(* The highest tail with at least ten samples beyond it. *)
let tail_quantile n = if n >= 1000 then Some 0.99 else if n >= 100 then Some 0.90 else None

let median = percentile 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b
let per a n = ratio (float_of_int a) (float_of_int n)

(* --- counter snapshots: one parsed Prometheus exposition --------------- *)

type snapshot = (string, int) Hashtbl.t

let snapshot_of_text text : snapshot =
  let tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) (Prometheus.parse_text text);
  tbl

let get (s : snapshot) name = Option.value ~default:0 (Hashtbl.find_opt s name)

(* [delta a b name] is the counter's growth from snapshot [a] to [b];
   [name] is a registry name ("btree.descents"), sanitized here. *)
let delta a b name =
  let n = Prometheus.sanitize name in
  get b n - get a n

(* Cumulative buckets of histogram [base] in [s], ascending by bound. *)
let buckets (s : snapshot) base =
  let prefix = Prometheus.sanitize base ^ "_bucket{le=\"" in
  let pl = String.length prefix in
  Hashtbl.fold
    (fun k v acc ->
      if String.length k > pl && String.sub k 0 pl = prefix then
        let bound = String.sub k pl (String.length k - pl - 2) in
        match int_of_string_opt bound with
        | Some b -> (b, v) :: acc
        | None -> acc
      else acc)
    s []
  |> List.sort compare

(* Quantile [q] of the observations histogram [base] gained between two
   snapshots, interpolated linearly inside the bucket that holds it (as
   Prometheus' histogram_quantile does); 0 when nothing was observed. *)
let histogram_quantile a b base q =
  let before = buckets a base in
  let cum =
    List.map
      (fun (bound, v) ->
        (bound, v - Option.value ~default:0 (List.assoc_opt bound before)))
      (buckets b base)
  in
  let total = delta a b (base ^ ".count") in
  if total <= 0 then 0.0
  else
    let target = q *. float_of_int total in
    let rec go lo prev = function
      | [] -> float_of_int lo
      | (bound, c) :: rest ->
          if float_of_int c >= target && c > prev then
            float_of_int lo
            +. float_of_int (bound - lo)
               *. ((target -. float_of_int prev) /. float_of_int (c - prev))
          else go bound c rest
    in
    go 0 0 cum

(* Mean observation of histogram [base] between two snapshots. *)
let histogram_mean a b base =
  per (delta a b (base ^ ".sum")) (delta a b (base ^ ".count"))

(* --- derived layer metrics --------------------------------------------- *)

(* Wire time of a GET: what the client waited beyond the server's own
   execute time. *)
let transport_p50 ~get_p50 ~execute_get_p50 = get_p50 -. execute_get_p50

(* A PUT's wait for its group commit: client latency minus execute time
   minus the wire time a GET shows. *)
let ack_wait_p50 ~put_p50 ~execute_put_p50 ~transport_p50 =
  put_p50 -. execute_put_p50 -. transport_p50
