(* Bench regression gate: fresh smoke BENCH_*.json vs committed baselines.

   Usage:  dune exec bench/compare.exe -- bench/baselines

   For every [BENCH_<id>.json] in the baselines directory there must be
   a same-named fresh file in the current directory (./check.sh runs
   `main.exe --smoke --json` first). The gate auto-extends: committing
   a new baseline file adds it to the matrix with no CI edit.

   Two kinds of check, both against the BASELINE's value (not an
   absolute ideal — smoke scale legitimately misses some full-scale
   acceptance shapes, e.g. W2's monotonicity, and that must not fail
   the gate as long as it held at seeding time):

   - every boolean the baseline records as [true] must still be [true]
     — an acceptance flag may not regress;
   - each numeric metric named in [rules] (deterministic or
     near-deterministic counts and modeled device time — never wall
     clock, which measures the CI host) must satisfy
     [fresh <= base * (1 + tolerance)]; lower is better for all of
     them, so improvements pass silently.

   Anything else in the JSON (wall-clock timings, percentiles,
   throughput) is ignored: gating those on shared CI runners gates the
   weather. Exit 0 all green, 1 on any regression or missing file. *)

(* --- minimal JSON ---------------------------------------------------

   The repo deliberately has no JSON dependency; bench_util hand-writes
   its output, and this is the matching hand-rolled reader for that
   subset (objects, arrays, strings with \-escapes, numbers, booleans,
   null). *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

exception Bad_json of string

let parse (s : string) : v =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'
             | '\\' -> Buffer.add_char b '\\'
             | '/' -> Buffer.add_char b '/'
             | 'n' -> Buffer.add_char b '\n'
             | 't' -> Buffer.add_char b '\t'
             | 'r' -> Buffer.add_char b '\r'
             | 'b' -> Buffer.add_char b '\b'
             | 'f' -> Buffer.add_char b '\012'
             | 'u' ->
                 (* bench output is ASCII; keep escapes opaque *)
                 if !pos + 4 >= n then fail "short \\u escape";
                 Buffer.add_string b ("\\u" ^ String.sub s (!pos + 1) 4);
                 pos := !pos + 4
             | c -> fail (Printf.sprintf "bad escape %C" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else Obj (members [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else Arr (elements [])
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (number ())
    | _ -> fail "expected a value"
  and members acc =
    skip_ws ();
    let key = string_lit () in
    skip_ws ();
    expect ':';
    let v = value () in
    skip_ws ();
    match peek () with
    | Some ',' ->
        advance ();
        members ((key, v) :: acc)
    | Some '}' ->
        advance ();
        List.rev ((key, v) :: acc)
    | _ -> fail "expected , or }"
  and elements acc =
    let v = value () in
    skip_ws ();
    match peek () with
    | Some ',' ->
        advance ();
        elements (v :: acc)
    | Some ']' ->
        advance ();
        List.rev (v :: acc)
    | _ -> fail "expected , or ]"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- paths ---------------------------------------------------------- *)

(* A leaf's address: object keys and array indices, dot-joined
   ("rows.3.device_model_ms"). Patterns use "*" as a one-segment
   wildcard. *)

let path_to_string path = String.concat "." (List.rev path)

let pattern_matches pattern path =
  let ps = String.split_on_char '.' pattern in
  let rec go ps qs =
    match (ps, qs) with
    | [], [] -> true
    | p :: ps, q :: qs -> (p = "*" || p = q) && go ps qs
    | _ -> false
  in
  go ps (List.rev path)

let rec leaves path v acc =
  match v with
  | Obj kvs ->
      List.fold_left (fun acc (k, v) -> leaves (k :: path) v acc) acc kvs
  | Arr vs ->
      let acc, _ =
        List.fold_left
          (fun (acc, i) v -> (leaves (string_of_int i :: path) v acc, i + 1))
          (acc, 0) vs
      in
      acc
  | _ -> (path, v) :: acc

let lookup tree path =
  let rec go v = function
    | [] -> Some v
    | seg :: rest -> (
        match v with
        | Obj kvs -> Option.bind (List.assoc_opt seg kvs) (fun v -> go v rest)
        | Arr vs ->
            Option.bind (int_of_string_opt seg) (fun i ->
                Option.bind (List.nth_opt vs i) (fun v -> go v rest))
        | _ -> None)
  in
  go tree (List.rev path)

(* --- tolerance rules ------------------------------------------------

   (baseline basename, leaf-path pattern, relative tolerance). All
   lower-is-better. Only deterministic / near-deterministic metrics:
   structural counts (descents, device reads/writes) and modeled device
   time. Wall clock, ops/s and latency percentiles are NEVER gated. *)

let rules =
  [
    (* B-tree descent counts are fully deterministic; any growth is a
       real resolution regression. *)
    ("BENCH_R1.json", "depths.*.*.descents_per_op", 0.05);
    (* Pager miss traffic depends slightly on domain scheduling; gate
       the order of magnitude, not the exact interleaving. *)
    ("BENCH_W2.json", "rows.*.device_reads", 0.50);
    ("BENCH_W2.json", "rows.*.device_writes", 0.50);
    (* Modeled commit cost per row; batch composition wobbles a little
       with scheduling but the model itself is deterministic. *)
    ("BENCH_S1.json", "rows.*.device_model_ms", 0.30);
    ("BENCH_S1.json", "sync_baseline.device_model_ms", 0.30);
    (* Single-threaded deterministic op stream: modeled device time and
       write counts move only if the txn commit path itself changes. *)
    ("BENCH_T2.json", "rows.*.device_model_ms", 0.10);
    ("BENCH_T2.json", "rows.*.device_writes", 0.10);
    (* S1's modeled commit cost, per telemetry arm. The observer's
       scrapes are read-only and never touch the device, so telemetry_on
       growing past this means telemetry started costing device work. *)
    ("BENCH_O2.json", "telemetry_off.device_model_ms", 0.30);
    ("BENCH_O2.json", "telemetry_on.device_model_ms", 0.30);
  ]

(* Booleans derived from wall-clock shapes are not meaningful at smoke
   scale (smoke is a bit-rot gate, not a measurement) — W2's
   monotonicity legitimately flips run to run at 60 ops/writer. Listed
   here they are skipped; everything else boolean is gated. S1's flags
   stay gated: S1 hard-fails its own run on them, so the baseline
   can only ever record true. *)
let noisy_bools =
  [ ("BENCH_W2.json", "acceptance.ops_per_s_monotone_in_shards") ]

(* --- the gate ------------------------------------------------------- *)

let failures = ref 0

let problem fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "  FAIL %s\n" msg)
    fmt

let check_file ~baseline_dir name =
  let read_json path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let raw = really_input_string ic len in
    close_in ic;
    parse raw
  in
  Printf.printf "%s:\n" name;
  let base = read_json (Filename.concat baseline_dir name) in
  match read_json name with
  | exception Sys_error _ ->
      problem "fresh %s missing (bench did not produce it)" name
  | exception Bad_json msg -> problem "fresh %s unreadable: %s" name msg
  | fresh ->
      let checked = ref 0 in
      List.iter
        (fun (path, bv) ->
          let where = path_to_string path in
          match bv with
          | Bool true
            when List.exists
                   (fun (file, pat) -> file = name && pattern_matches pat path)
                   noisy_bools ->
              ()
          | Bool true -> (
              incr checked;
              match lookup fresh path with
              | Some (Bool true) -> ()
              | Some (Bool false) ->
                  problem "%s: acceptance regressed true -> false" where
              | _ -> problem "%s: boolean missing from fresh output" where)
          | Bool false | Null | Str _ -> ()
          | Num bn -> (
              match
                List.find_opt
                  (fun (file, pat, _) ->
                    file = name && pattern_matches pat path)
                  rules
              with
              | None -> ()
              | Some (_, _, tol) -> (
                  incr checked;
                  let limit = (bn *. (1.0 +. tol)) +. 1e-9 in
                  match lookup fresh path with
                  | Some (Num fn) when fn <= limit -> ()
                  | Some (Num fn) ->
                      problem "%s: %.4g > %.4g (baseline %.4g +%d%%)" where
                        fn limit bn
                        (int_of_float (tol *. 100.0))
                  | _ -> problem "%s: metric missing from fresh output" where))
          | Obj _ | Arr _ -> assert false (* leaves only *))
        (leaves [] base []);
      Printf.printf "  %d checks\n" !checked

let () =
  let baseline_dir =
    match Array.to_list Sys.argv with
    | [ _; dir ] -> dir
    | _ ->
        prerr_endline "usage: compare.exe BASELINE_DIR  (fresh files in cwd)";
        exit 2
  in
  let baselines =
    Sys.readdir baseline_dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if baselines = [] then begin
    Printf.eprintf "no BENCH_*.json baselines in %s\n" baseline_dir;
    exit 2
  end;
  List.iter (check_file ~baseline_dir) baselines;
  if !failures > 0 then begin
    Printf.printf "bench compare: %d regression(s)\n" !failures;
    exit 1
  end
  else Printf.printf "bench compare: OK (%d baselines)\n" (List.length baselines)
