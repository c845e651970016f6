(* Benchmark harness entry point.

   `dune exec bench/main.exe` regenerates every experiment table (see
   DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
   paper-vs-measured discussion), then runs the bechamel
   micro-benchmarks.

   Pass experiment ids to run a subset:
     dune exec bench/main.exe -- C1 C3
   Ids: F1 P1 T1 T2 C1 C2 C3 C4 C5 C6 M1 A1 J1 W1 W2 O1 R1 S1 O2 micro

   [--json] additionally writes BENCH_<id>.json files (machine-readable
   results) for the experiments that support it — C2, P1, T2, W1, W2,
   O1 (which also exports O1.trace.json, a Chrome trace_event file),
   R1, S1 and O2 (which also exports metrics.prom, the scraped
   Prometheus exposition).

   [--list] prints the experiment ids, one per line, and exits.

   [--smoke] runs every experiment at a tiny problem size as a bit-rot
   gate: each must complete without raising. check.sh runs it once with
   [--json], so a bench can no longer silently break while only the test
   suite is watched, and CI gates and uploads the JSON it writes. Smoke
   output is NOT a measurement. *)

(* (id, entry point) *)
let experiments =
  [
    ("F1", Exp_f1.run);
    ("P1", Exp_p1.run);
    ("T1", Exp_t1.run);
    ("T2", Exp_t2.run);
    ("C1", Exp_c1.run);
    ("C2", Exp_c2.run);
    ("C3", Exp_c3.run);
    ("C4", Exp_c4.run);
    ("C5", Exp_c5.run);
    ("C6", Exp_c6.run);
    ("M1", Exp_m1.run);
    ("A1", Exp_a1.run);
    ("J1", Exp_j1.run);
    ("W1", Exp_w1.run);
    ("W2", Exp_w2.run);
    ("O1", Exp_o1.run);
    ("R1", Exp_r1.run);
    ("S1", Exp_s1.run);
    ("O2", Exp_o2.run);
    ("micro", Micro.run);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let json, args = List.partition (String.equal "--json") args in
  let listing, args = List.partition (String.equal "--list") args in
  let smoke, ids = List.partition (String.equal "--smoke") args in
  if listing <> [] then begin
    List.iter (fun (id, _) -> print_endline id) experiments;
    exit 0
  end;
  if json <> [] then Bench_util.json_enabled := true;
  if smoke <> [] then Bench_util.smoke := true;
  let requested =
    match ids with
    | [] -> List.map fst experiments
    | ids -> ids
  in
  Format.printf "hFAD benchmark harness (see DESIGN.md / EXPERIMENTS.md)%s@."
    (if !Bench_util.smoke then " [SMOKE — not a measurement]" else "");
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some run ->
          run ();
          if !Bench_util.smoke then Format.printf "[smoke] %s: ok@." id
      | None ->
          Format.eprintf "unknown experiment %S; known: %s@." id
            (String.concat " " (List.map fst experiments));
          exit 2)
    requested;
  if !Bench_util.smoke then
    Format.printf "bench smoke: OK (%d experiments)@." (List.length requested)
