(* The one seeded op-stream generator every workload draws from.

   A stream is a weighted mix of op kinds over a target population.
   Targets are Zipf-ranked, and a fixed permutation of the stream id
   maps rank to target, as YCSB's scrambled Zipfian does: the hot
   objects are the same for every seed, and the seed draws the
   sequence of ops over them. Payload text comes from the same
   stream's generator, so one (seed, stream id) pair fixes every input
   a workload sends. *)

module Rng = Hfad_util.Rng
module Zipf = Hfad_util.Zipf
module Words = Hfad_workload.Words

type 'k t = {
  rng : Rng.t;
  zipf : Zipf.t;
  perm : int array;  (* Zipf rank -> target index *)
  mix : (float * 'k) array;  (* cumulative weight, kind *)
  words : Zipf.t;  (* over Words.common, for payload text *)
}

(* Distinct streams of one seed are independent: each gets its own
   splitmix seed derived from both numbers. *)
let rng_of ~seed ~stream =
  let root = Rng.create (Int64.of_int seed) in
  for _ = 0 to stream do
    ignore (Rng.next_int64 root)
  done;
  Rng.split root

let permutation rng n =
  let a = Array.init n Fun.id in
  Rng.shuffle rng a;
  a

(* Target popularity: Zipf with this exponent over the targets. *)
let skew = 0.99

let create ~seed ~stream ~targets mix =
  let rng = rng_of ~seed ~stream in
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 mix in
  let acc = ref 0.0 in
  let mix =
    Array.of_list
      (List.map
         (fun (w, k) ->
           acc := !acc +. (w /. total);
           (!acc, k))
         mix)
  in
  {
    rng;
    zipf = Zipf.create ~n:targets ~s:skew;
    perm = permutation (rng_of ~seed:0 ~stream) targets;
    mix;
    words = Zipf.create ~n:(Array.length Words.common) ~s:1.0;
  }

let kind t =
  let u = Rng.float t.rng 1.0 in
  let n = Array.length t.mix in
  let rec pick i = if i >= n - 1 || u < fst t.mix.(i) then snd t.mix.(i) else pick (i + 1) in
  pick 0

let target t = t.perm.(Zipf.sample t.zipf t.rng)

(* Next op: its kind and its Zipf-drawn target. *)
let next t =
  let k = kind t in
  (k, target t)

let int t bound = Rng.int t.rng bound

let word t = Words.common.(Zipf.sample t.words t.rng)

(* Ordinary text of about [bytes] bytes: Zipf-drawn common words, so
   repeated writes reuse a bounded vocabulary. *)
let text t ~bytes =
  let b = Buffer.create (bytes + 16) in
  while Buffer.length b < bytes do
    if Buffer.length b > 0 then Buffer.add_char b ' ';
    Buffer.add_string b (word t)
  done;
  Buffer.contents b

(* Two distinct indexable words of [s] (one if it has only one). *)
let two_terms t s =
  let toks =
    Array.of_list
      (List.sort_uniq compare (Hfad_fulltext.Tokenizer.tokens s))
  in
  let n = Array.length toks in
  if n <= 1 then Array.to_list toks
  else
    let i = Rng.int t.rng n in
    let j = (i + 1 + Rng.int t.rng (n - 1)) mod n in
    [ toks.(i); toks.(j) ]
