(* Tests for Hfad_util: Rng, Zipf, Codec, Crc32, Strx. *)

open Hfad_util

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Rng -------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  check Alcotest.bool "streams differ" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create 7L in
  let b = Rng.copy a in
  let xa = Rng.next_int64 a in
  let xb = Rng.next_int64 b in
  check Alcotest.int64 "copy continues identically" xa xb;
  ignore (Rng.next_int64 a);
  (* advancing a does not advance b *)
  let xa2 = Rng.next_int64 a and xb2 = Rng.next_int64 b in
  check Alcotest.bool "diverged positions" true (xa2 <> xb2 || xa2 = xb2);
  ()

let test_rng_split_independent () =
  let parent = Rng.create 9L in
  let child = Rng.split parent in
  let c1 = Rng.next_int64 child in
  let p1 = Rng.next_int64 parent in
  check Alcotest.bool "child differs from parent stream" true (c1 <> p1)

let test_rng_int_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in_bounds () =
  let rng = Rng.create 4L in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-5) 5 in
    check Alcotest.bool "in range" true (v >= -5 && v <= 5)
  done

let test_rng_int_uniformish () =
  let rng = Rng.create 5L in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d skewed: %d vs %d" i c expected)
    buckets

let test_rng_float_bounds () =
  let rng = Rng.create 6L in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check Alcotest.bool "in range" true (v >= 0. && v < 2.5)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 8L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "still a permutation"
    (Array.init 50 Fun.id) sorted

let test_rng_sample () =
  let rng = Rng.create 10L in
  let arr = Array.init 20 Fun.id in
  let s = Rng.sample rng 5 arr in
  check Alcotest.int "size" 5 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  check Alcotest.int "distinct" 5 (List.length distinct);
  Alcotest.check_raises "too many" (Invalid_argument "Rng.sample: k out of range")
    (fun () -> ignore (Rng.sample rng 21 arr))

let test_rng_choice () =
  let rng = Rng.create 11L in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    let c = Rng.choice rng arr in
    check Alcotest.bool "member" true (Array.mem c arr)
  done

(* --- Zipf ------------------------------------------------------------- *)

let test_zipf_uniform_when_s0 () =
  let z = Zipf.create ~n:4 ~s:0. in
  for k = 0 to 3 do
    check (Alcotest.float 1e-9) "uniform prob" 0.25 (Zipf.expected_probability z k)
  done

let test_zipf_monotone () =
  let z = Zipf.create ~n:100 ~s:1.0 in
  for k = 1 to 99 do
    check Alcotest.bool "non-increasing" true
      (Zipf.expected_probability z (k - 1) >= Zipf.expected_probability z k -. 1e-12)
  done

let test_zipf_sample_range_and_skew () =
  let z = Zipf.create ~n:1000 ~s:1.0 in
  let rng = Rng.create 123L in
  let hits0 = ref 0 and total = 20_000 in
  for _ = 1 to total do
    let k = Zipf.sample z rng in
    check Alcotest.bool "in range" true (k >= 0 && k < 1000);
    if k = 0 then incr hits0
  done;
  let p0 = Zipf.expected_probability z 0 in
  let observed = float_of_int !hits0 /. float_of_int total in
  check Alcotest.bool "rank 0 frequency near expectation" true
    (abs_float (observed -. p0) < 0.03)

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive")
    (fun () -> ignore (Zipf.create ~n:0 ~s:1.));
  Alcotest.check_raises "s<0" (Invalid_argument "Zipf.create: s must be non-negative")
    (fun () -> ignore (Zipf.create ~n:3 ~s:(-1.)))

(* --- Codec ------------------------------------------------------------ *)

let test_codec_fixed_roundtrip () =
  let buf = Bytes.create 32 in
  Codec.put_u8 buf 0 0xAB;
  check Alcotest.int "u8" 0xAB (Codec.get_u8 buf 0);
  Codec.put_u16 buf 1 0xBEEF;
  check Alcotest.int "u16" 0xBEEF (Codec.get_u16 buf 1);
  Codec.put_u32 buf 4 0xDEADBEEF;
  check Alcotest.int "u32" 0xDEADBEEF (Codec.get_u32 buf 4);
  Codec.put_i64 buf 8 (-123456789L);
  check Alcotest.int64 "i64" (-123456789L) (Codec.get_i64 buf 8)

let test_codec_i64_key_order =
  qtest
    (QCheck.Test.make ~name:"encode_i64_key preserves order" ~count:2000
       QCheck.(pair int64 int64)
       (fun (a, b) ->
         let ka = Codec.encode_i64_key a and kb = Codec.encode_i64_key b in
         compare ka kb = Int64.compare a b))

let test_codec_i64_key_roundtrip =
  qtest
    (QCheck.Test.make ~name:"encode/decode_i64_key roundtrip" ~count:2000
       QCheck.int64
       (fun v -> Codec.decode_i64_key (Codec.encode_i64_key v) = v))

let test_codec_varint_roundtrip =
  qtest
    (QCheck.Test.make ~name:"varint roundtrip" ~count:2000
       QCheck.(map abs int)
       (fun v ->
         let buf = Bytes.create 10 in
         let off = Codec.put_varint buf 0 v in
         let v', off' = Codec.get_varint buf 0 in
         v = v' && off = off' && off = Codec.varint_size v))

let test_codec_string_roundtrip =
  qtest
    (QCheck.Test.make ~name:"length-prefixed string roundtrip" ~count:1000
       QCheck.string
       (fun s ->
         let buf = Bytes.create (Codec.string_size s + 8) in
         let off = Codec.put_string buf 0 s in
         let s', off' = Codec.get_string buf 0 in
         s = s' && off = off'))

let test_codec_varint_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Codec.put_varint: negative")
    (fun () -> ignore (Codec.put_varint (Bytes.create 10) 0 (-1)))

(* --- Crc32 ------------------------------------------------------------ *)

let test_crc32_known_vector () =
  (* CRC-32 of "123456789" is 0xCBF43926 (standard check value). *)
  check Alcotest.int32 "check value" 0xCBF43926l (Crc32.string "123456789")

let test_crc32_empty () =
  check Alcotest.int32 "empty" 0l (Crc32.string "")

let test_crc32_detects_flip =
  qtest
    (QCheck.Test.make ~name:"crc32 detects single byte flips" ~count:500
       QCheck.(pair (string_of_size Gen.(1 -- 64)) small_nat)
       (fun (s, i) ->
         QCheck.assume (String.length s > 0);
         let i = i mod String.length s in
         let b = Bytes.of_string s in
         Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
         Crc32.string (Bytes.to_string b) <> Crc32.string s))

let test_crc32_range () =
  let b = Bytes.of_string "xx123456789yy" in
  check Alcotest.int32 "range" 0xCBF43926l (Crc32.bytes b ~pos:2 ~len:9);
  Alcotest.check_raises "bad range"
    (Invalid_argument "Crc32.bytes: range out of bounds") (fun () ->
      ignore (Crc32.bytes b ~pos:10 ~len:10))

(* The definition, one bit at a time: the reference the sliced kernel
   must agree with. *)
let crc32_reference b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code (Bytes.get b i);
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then (!c lsr 1) lxor 0xEDB88320 else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* A buffer of up to 9 KB and a range in it. Half the ranges are at
   most 15 bytes long, shorter than two 8-byte steps; random starts give
   unaligned heads and tails. *)
let gen_crc_range =
  QCheck.Gen.(
    0 -- 9216 >>= fun n ->
    string_size (return n) >>= fun s ->
    0 -- n >>= fun pos ->
    oneof [ 0 -- min 15 (n - pos); 0 -- (n - pos) ] >>= fun len ->
    return (Bytes.of_string s, pos, len))

let print_crc_range (b, pos, len) =
  Printf.sprintf "buffer of %d bytes, pos %d, len %d" (Bytes.length b) pos len

let test_crc32_matches_reference =
  qtest
    (QCheck.Test.make ~name:"crc32 matches the bitwise reference" ~count:300
       (QCheck.make ~print:print_crc_range gen_crc_range)
       (fun (b, pos, len) -> Crc32.bytes b ~pos ~len = crc32_reference b ~pos ~len))

let test_crc32_chains =
  let gen =
    QCheck.Gen.(
      gen_crc_range >>= fun (b, pos, len) ->
      map (fun k -> (b, pos, len, k)) (0 -- len))
  in
  let print (b, pos, len, k) =
    Printf.sprintf "%s, split at %d" (print_crc_range (b, pos, len)) k
  in
  qtest
    (QCheck.Test.make ~name:"crc32 chains across a split" ~count:300
       (QCheck.make ~print gen)
       (fun (b, pos, len, k) ->
         Crc32.bytes ~crc:(Crc32.bytes b ~pos ~len:k) b ~pos:(pos + k) ~len:(len - k)
         = Crc32.bytes b ~pos ~len))

(* --- Strx ------------------------------------------------------------- *)

let test_strx_common_prefix () =
  check Alcotest.int "abc/abd" 2 (Strx.common_prefix_len "abc" "abd");
  check Alcotest.int "empty" 0 (Strx.common_prefix_len "" "abc");
  check Alcotest.int "equal" 3 (Strx.common_prefix_len "abc" "abc")

let test_strx_starts_with () =
  check Alcotest.bool "yes" true (Strx.starts_with ~prefix:"/ho" "/home");
  check Alcotest.bool "no" false (Strx.starts_with ~prefix:"/home/x" "/home");
  check Alcotest.bool "empty prefix" true (Strx.starts_with ~prefix:"" "x")

let test_strx_next_prefix () =
  check (Alcotest.option Alcotest.string) "simple" (Some "ab") (Strx.next_prefix "aa");
  check (Alcotest.option Alcotest.string) "carry" (Some "b") (Strx.next_prefix "a\xff");
  check (Alcotest.option Alcotest.string) "all ff" None (Strx.next_prefix "\xff\xff");
  check (Alcotest.option Alcotest.string) "empty" None (Strx.next_prefix "")

let test_strx_next_prefix_orders =
  qtest
    (QCheck.Test.make ~name:"next_prefix bounds all prefixed strings" ~count:1000
       QCheck.(pair (string_of_size Gen.(1 -- 8)) (string_of_size Gen.(0 -- 8)))
       (fun (p, suffix) ->
         match Strx.next_prefix p with
         | None -> true
         | Some np ->
             let s = p ^ suffix in
             String.compare s np < 0 && String.compare p np < 0))

let test_strx_split () =
  check (Alcotest.list Alcotest.string) "drops empties" [ "a"; "b" ]
    (Strx.split_on_char_nonempty '/' "/a//b/");
  check (Alcotest.list Alcotest.string) "empty input" []
    (Strx.split_on_char_nonempty '/' "///")

let test_strx_printable () =
  check Alcotest.bool "printable" true (Strx.is_printable_ascii "Hello, world!");
  check Alcotest.bool "control" false (Strx.is_printable_ascii "a\nb");
  check Alcotest.bool "high byte" false (Strx.is_printable_ascii "caf\xc3\xa9")

(* --- Rwlock ----------------------------------------------------------- *)

let test_rwlock_basic () =
  let l = Rwlock.create ~name:"t" () in
  check Alcotest.string "name" "t" (Rwlock.name l);
  check Alcotest.int "shared result" 7 (Rwlock.with_shared l (fun () -> 7));
  check Alcotest.int "exclusive result" 9 (Rwlock.with_exclusive l (fun () -> 9));
  check Alcotest.bool "not held outside" false (Rwlock.holds_exclusive l);
  Rwlock.with_exclusive l (fun () ->
      check Alcotest.bool "held inside" true (Rwlock.holds_exclusive l))

let test_rwlock_reentrant () =
  let l = Rwlock.create () in
  (* Nested shared, nested exclusive, and shared inside exclusive must
     all be admitted without blocking — the layered stack relies on it. *)
  Rwlock.with_shared l (fun () -> Rwlock.with_shared l (fun () -> ()));
  Rwlock.with_exclusive l (fun () ->
      Rwlock.with_exclusive l (fun () ->
          Rwlock.with_shared l (fun () -> ())));
  let s = Rwlock.stats l in
  check Alcotest.int "shared acquisitions" 3 s.Rwlock.shared_acquisitions;
  check Alcotest.int "exclusive acquisitions" 2 s.Rwlock.exclusive_acquisitions;
  check Alcotest.int "no waits" 0
    (s.Rwlock.shared_waits + s.Rwlock.exclusive_waits);
  (* Fully released afterwards: an upgrade attempt from a fresh state
     must see no stale reader entry. *)
  Rwlock.with_exclusive l (fun () -> ())

let test_rwlock_upgrade_raises () =
  let l = Rwlock.create () in
  (try
     Rwlock.with_shared l (fun () ->
         Rwlock.with_exclusive l (fun () -> ());
         Alcotest.fail "upgrade admitted")
   with Rwlock.Would_deadlock -> ());
  (* The failed upgrade must leave the lock usable. *)
  Rwlock.with_exclusive l (fun () -> ());
  Rwlock.with_shared l (fun () -> ())

let test_rwlock_exception_releases () =
  let l = Rwlock.create () in
  (try Rwlock.with_exclusive l (fun () -> failwith "boom")
   with Failure _ -> ());
  (try Rwlock.with_shared l (fun () -> failwith "boom")
   with Failure _ -> ());
  (* If either hold leaked, this would block forever. *)
  Rwlock.with_exclusive l (fun () -> ())

let test_rwlock_exclusive_mutual_exclusion () =
  let l = Rwlock.create () in
  let counter = ref 0 in
  let per_domain = 1_000 and domains = 4 in
  let spawned =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              (* Plain ref: any overlap between exclusive sections would
                 lose increments. *)
              Rwlock.with_exclusive l (fun () -> incr counter)
            done))
  in
  List.iter Domain.join spawned;
  check Alcotest.int "no lost updates" (domains * per_domain) !counter;
  let s = Rwlock.stats l in
  check Alcotest.int "every acquisition counted" (domains * per_domain)
    s.Rwlock.exclusive_acquisitions

let test_rwlock_shared_concurrency_and_waits () =
  let l = Rwlock.create () in
  let holding = Atomic.make false in
  let release = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Rwlock.with_exclusive l (fun () ->
            Atomic.set holding true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done))
  in
  while not (Atomic.get holding) do
    Domain.cpu_relax ()
  done;
  let releaser =
    Domain.spawn (fun () ->
        (* Let the main thread block on the shared side first. *)
        Unix.sleepf 0.05;
        Atomic.set release true)
  in
  (* The writer definitely holds the lock here, so this first-time shared
     acquisition must be recorded as a wait. *)
  Rwlock.with_shared l (fun () -> ());
  Domain.join writer;
  Domain.join releaser;
  let s = Rwlock.stats l in
  check Alcotest.bool "shared wait recorded" true (s.Rwlock.shared_waits >= 1);
  (* And many readers at once, with no writer: no further waits. *)
  Rwlock.reset_stats l;
  let readers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 500 do
              Rwlock.with_shared l (fun () -> ())
            done))
  in
  List.iter Domain.join readers;
  let s = Rwlock.stats l in
  check Alcotest.int "reader acquisitions" 2_000 s.Rwlock.shared_acquisitions;
  check Alcotest.int "readers never wait for readers" 0 s.Rwlock.shared_waits

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng copy" `Quick test_rng_copy_independent;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int_in bounds" `Quick test_rng_int_in_bounds;
    Alcotest.test_case "rng uniformity" `Slow test_rng_int_uniformish;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng shuffle is permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng sample" `Quick test_rng_sample;
    Alcotest.test_case "rng choice" `Quick test_rng_choice;
    Alcotest.test_case "zipf uniform at s=0" `Quick test_zipf_uniform_when_s0;
    Alcotest.test_case "zipf monotone" `Quick test_zipf_monotone;
    Alcotest.test_case "zipf sampling skew" `Slow test_zipf_sample_range_and_skew;
    Alcotest.test_case "zipf invalid args" `Quick test_zipf_invalid;
    Alcotest.test_case "codec fixed-width roundtrip" `Quick test_codec_fixed_roundtrip;
    test_codec_i64_key_order;
    test_codec_i64_key_roundtrip;
    test_codec_varint_roundtrip;
    test_codec_string_roundtrip;
    Alcotest.test_case "codec varint rejects negative" `Quick test_codec_varint_negative;
    Alcotest.test_case "crc32 known vector" `Quick test_crc32_known_vector;
    Alcotest.test_case "crc32 empty" `Quick test_crc32_empty;
    test_crc32_detects_flip;
    Alcotest.test_case "crc32 range" `Quick test_crc32_range;
    test_crc32_matches_reference;
    test_crc32_chains;
    Alcotest.test_case "strx common_prefix_len" `Quick test_strx_common_prefix;
    Alcotest.test_case "strx starts_with" `Quick test_strx_starts_with;
    Alcotest.test_case "strx next_prefix" `Quick test_strx_next_prefix;
    test_strx_next_prefix_orders;
    Alcotest.test_case "strx split_on_char_nonempty" `Quick test_strx_split;
    Alcotest.test_case "strx is_printable_ascii" `Quick test_strx_printable;
    Alcotest.test_case "rwlock basic" `Quick test_rwlock_basic;
    Alcotest.test_case "rwlock reentrant" `Quick test_rwlock_reentrant;
    Alcotest.test_case "rwlock upgrade raises" `Quick test_rwlock_upgrade_raises;
    Alcotest.test_case "rwlock exception releases" `Quick
      test_rwlock_exception_releases;
    Alcotest.test_case "rwlock exclusive mutual exclusion" `Quick
      test_rwlock_exclusive_mutual_exclusion;
    Alcotest.test_case "rwlock shared concurrency + waits" `Quick
      test_rwlock_shared_concurrency_and_waits;
  ]
