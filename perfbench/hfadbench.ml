(* Entry point.

     hfadbench --workload wire-write|naming --seed N
               --seconds S --trace 0|1
     hfadbench selftest
     hfadbench metrics            (every metric name and unit it reports)
     hfadbench serve IMAGE        (the server child; see Child)

   A run prints its figures, then one JSON line: the end-to-end
   metrics with --trace 0, the per-layer ones with --trace 1. *)

let workloads = [ "wire-write"; "naming" ]

(* Set-up is repeated and its median reported, so that one slow
   set-up does not decide the figure. *)
let setup_reps = 3

(* Scratch files (the wire workload's saved image) live here, under the
   directory the benchmark runs from. *)
let workdir = ".perfbench"

let usage () =
  prerr_endline
    "usage: hfadbench --workload (wire-write|naming) --seed N \
     --seconds S --trace 0|1\n       hfadbench selftest";
  exit 2

let run args =
  let rec parse acc = function
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get name = match List.assoc_opt name opts with Some v -> v | None -> usage () in
  let int name = match int_of_string_opt (get name) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  if not (List.mem workload workloads) || seconds <= 0. then usage ();
  if not (Sys.file_exists workdir) then Sys.mkdir workdir 0o755;
  let result =
    match workload with
    | "naming" -> Naming.run ~seed ~seconds ~trace ~setup_reps
    | _ -> Wire.run ~seed ~seconds ~trace ~setup_reps ~workdir
  in
  Printf.printf "workload %s, seed %d, %.0f s measured%s\n" workload seed seconds
    (if trace then " (half untraced, half traced)" else "");
  Report.print ~trace result

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "serve"; image ] -> Child.serve image
  | [ "selftest" ] -> exit (if Selftest.run () then 0 else 1)
  | [ "metrics" ] ->
      let print kind = List.iter (fun (name, unit_) -> Printf.printf "%s %s %s\n" kind name unit_) in
      print "end_to_end" Report.end_to_end_names;
      print "per_layer" Report.layer_names
  | args -> run args
