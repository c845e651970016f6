(* Bounded waits for tests that probe for deadlocks: [within] runs [f]
   on its own domain and waits at most [seconds] for it, so a deadlock
   fails the case instead of hanging the suite. A domain that misses the
   deadline is abandoned with whatever it holds; the process still
   exits. *)

let within ?(seconds = 5.0) what f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (match f () with v -> Ok v | exception e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get result with
    | Some r ->
        Domain.join d;
        (match r with Ok v -> v | Error e -> raise e)
    | None when Unix.gettimeofday () > deadline ->
        Alcotest.failf "%s: no answer within %.0f s" what seconds
    | None ->
        Unix.sleepf 0.005;
        wait ()
  in
  wait ()
