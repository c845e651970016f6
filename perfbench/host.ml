(* The host's speed, measured during the run.

   The benchmark shares its host, whose speed drifts by tens of percent
   over seconds to minutes: other tenants contend for memory, and an
   allocating OCaml program slows with them. Whole runs drift by more
   than any bound a regression check could use. So the benchmark times
   a fixed reference kernel between ops, and converts every time it
   reports to reference-host time: a slice of the run that the kernel
   says ran [s] times slower than nominal has its times divided by [s].

   The kernel is the benchmark's own and touches none of the program's
   code: it copies short keys out of random 4 KB pages into fresh
   strings and compares them, the work of a node decode. Its pages live
   outside the OCaml heap, and its allocations die young, so it neither
   grows the heap nor leaves the collector work. *)

module A = Bigarray.Array1

(* The kernel's median time on a calm host, where [s] = 1. *)
let nominal_ms = 0.105

let xorshift x =
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  x lxor (x lsl 17)

let page_count = 2048

let pages =
  lazy
    (A.init Bigarray.char Bigarray.c_layout (page_count * 4096) (fun i ->
         Char.chr (97 + (xorshift (i + 1) land 15))))

(* Decode 64 keys of 12 bytes from each of 32 random pages, then find
   one of them again. *)
let kernel () =
  let p = Lazy.force pages in
  let x = ref 7 and found = ref 0 in
  for _ = 1 to 32 do
    x := xorshift !x;
    let base = (!x land (page_count - 1)) * 4096 in
    let keys =
      List.init 64 (fun j -> String.init 12 (fun k -> A.unsafe_get p (base + (j * 64) + k)))
    in
    let probe = List.nth keys (!x land 63) in
    List.iter (fun k -> if String.equal k probe then incr found) keys
  done;
  !found

type t = {
  mutable slice : float list;  (* kernel times (ms) of the open slice *)
  mutable slowdowns : float list;  (* one per closed slice *)
  mutable spent : float;  (* seconds spent in the kernel, to leave out of wall time *)
}

let create () =
  ignore (Lazy.force pages);
  { slice = []; slowdowns = []; spent = 0.0 }

let probe t =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()));
  let dt = Unix.gettimeofday () -. t0 in
  t.slice <- (dt *. 1e3) :: t.slice;
  t.spent <- t.spent +. dt

(* Close the open slice, probing once more so that it holds at least
   one time; returns its slowdown [s]. *)
let close_slice t =
  probe t;
  let s = Stat.median t.slice /. nominal_ms in
  t.slice <- [];
  t.slowdowns <- s :: t.slowdowns;
  s

(* The median slowdown over the slices closed so far. *)
let slowdown t = Stat.median t.slowdowns
