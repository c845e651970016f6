(* Checks of the generator and the metric helpers; run with
   [hfadbench selftest]. *)

let checks = ref []
let check name ok = checks := (name, ok) :: !checks
let close_to a b = Float.abs (a -. b) < 1e-9

let stream ~seed ~stream =
  let g = Gen.create ~seed ~stream ~targets:1024 [ (0.85, `Put); (0.15, `Get) ] in
  List.init 2000 (fun _ ->
      let k, t = Gen.next g in
      (k, t, Gen.text g ~bytes:40))

let generator () =
  check "same seed, same stream" (stream ~seed:7 ~stream:1 = stream ~seed:7 ~stream:1);
  check "other seed, other stream" (stream ~seed:7 ~stream:1 <> stream ~seed:8 ~stream:1);
  check "other stream id, other stream" (stream ~seed:7 ~stream:1 <> stream ~seed:7 ~stream:2);
  let ops = stream ~seed:3 ~stream:1 in
  let puts = List.length (List.filter (fun (k, _, _) -> k = `Put) ops) in
  check "mix weights hold (85% +- 3%)" (abs (puts - 1700) < 60);
  check "targets in range" (List.for_all (fun (_, t, _) -> t >= 0 && t < 1024) ops);
  let hits = Array.make 1024 0 in
  List.iter (fun (_, t, _) -> hits.(t) <- hits.(t) + 1) ops;
  check "targets are Zipf-skewed (top target > 50x uniform share)"
    (Array.fold_left max 0 hits > 50 * 2000 / 1024);
  let g = Gen.create ~seed:1 ~stream:0 ~targets:4 [ (1.0, ()) ] in
  let s = Gen.text g ~bytes:240 in
  check "text is about 240 bytes" (String.length s >= 240 && String.length s < 260);
  check "two_terms draws two distinct words of the text"
    (match Gen.two_terms g s with
    | [ a; b ] -> a <> b && List.mem a (Hfad_fulltext.Tokenizer.tokens s) && List.mem b (Hfad_fulltext.Tokenizer.tokens s)
    | _ -> false)

let helpers () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100 is 50" (close_to (Stat.median xs) 50.);
  check "p90 of 1..100 is 90" (close_to (Stat.percentile 0.9 xs) 90.);
  check "p99 of 1..100 is 99" (close_to (Stat.percentile 0.99 xs) 99.);
  check "tail: p90 from 100 samples, p99 from 1000"
    (Stat.tail_quantile 99 = None && Stat.tail_quantile 100 = Some 0.9
    && Stat.tail_quantile 1000 = Some 0.99);
  (* A histogram that gains 10 observations <= 100 and 10 in (100, 200]
     has its median at the top of the first bucket and its p75 half-way
     through the second. *)
  let exposition ~le100 ~le200 ~sum =
    Printf.sprintf
      "x_lat_bucket{le=\"100\"} %d\nx_lat_bucket{le=\"200\"} %d\n\
       x_lat_bucket{le=\"+Inf\"} %d\nx_lat_sum %d\nx_lat_count %d\nc_ops 5\n"
      le100 le200 le200 sum le200
  in
  let a = Stat.snapshot_of_text (exposition ~le100:5 ~le200:5 ~sum:100) in
  let b = Stat.snapshot_of_text (exposition ~le100:15 ~le200:25 ~sum:2600) in
  check "histogram p50 of the delta" (close_to (Stat.histogram_quantile a b "x.lat" 0.5) 100.);
  check "histogram p75 interpolates" (close_to (Stat.histogram_quantile a b "x.lat" 0.75) 150.);
  check "histogram mean of the delta" (close_to (Stat.histogram_mean a b "x.lat") 125.);
  check "empty histogram window reads 0" (close_to (Stat.histogram_quantile b b "x.lat" 0.5) 0.);
  check "counter delta by registry name" (Stat.delta a b "x.lat.count" = 20);
  (* 1,000 ops in 10 s; 600 of them run 4x slower. *)
  let s = Samples.create () in
  for i = 1 to 1000 do
    Samples.add s ~us:(if i <= 600 then 400. else 100.) 0
  done;
  let rate, p50 = Samples.end_to_end s ~wall:10.0 in
  check "throughput is ops over the whole window" (close_to rate 100.);
  check "median latency counts the slowed ops" (close_to p50 400.);
  (* Four 100 us ops: two in a slice the host ran 2x slower than
     nominal, two in one it ran at half that; then two of no slice. *)
  let s = Samples.create () in
  let twice () = for _ = 1 to 2 do Samples.add s ~us:100. 0 done in
  twice ();
  Samples.set_slowdown s ~from:0 2.0;
  twice ();
  Samples.set_slowdown s ~from:2 0.5;
  let plain = Samples.create () in
  for _ = 1 to 2 do Samples.add plain ~us:100. 0 done;
  check "a slice's latencies are divided by its slowdown"
    (Samples.latencies s = [ 50.; 50.; 200.; 200. ]);
  check "raw latencies are as measured" (Samples.latencies ~raw:true s = [ 100.; 100.; 100.; 100. ]);
  check "merge keeps each window's slices"
    (Samples.latencies (Samples.merge [ s; plain ]) = [ 50.; 50.; 200.; 200.; 100.; 100. ]);
  let transport = Stat.transport_p50 ~get_p50:300. ~execute_get_p50:120. in
  check "wire.transport_p50_us = get_p50 - execute_get_p50" (close_to transport 180.);
  check "flusher.ack_wait_p50_us = put_p50 - execute_put_p50 - transport"
    (close_to (Stat.ack_wait_p50 ~put_p50:5000. ~execute_put_p50:800. ~transport_p50:transport) 4020.)

let run () =
  generator ();
  helpers ();
  let all = List.rev !checks in
  List.iter (fun (name, ok) -> Printf.printf "%-60s %s\n" name (if ok then "ok" else "FAILED")) all;
  List.for_all snd all
