(* Unit and property tests for Mdh_support: rng, stats, table, util, memo. *)

open Mdh_support

let check = Alcotest.check

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 10 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Rng.next_int64 b) in
  check Alcotest.bool "different streams" true (xs <> ys)

let test_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    check Alcotest.bool "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_in () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int_in r (-5) 5 in
    check Alcotest.bool "in range" true (x >= -5 && x <= 5)
  done

let test_rng_float_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.float r 2.5 in
    check Alcotest.bool "in range" true (x >= 0.0 && x < 2.5)
  done

let test_rng_split_independent () =
  let parent = Rng.create 99 in
  let child = Rng.split parent in
  let xs = List.init 5 (fun _ -> Rng.next_int64 parent) in
  let ys = List.init 5 (fun _ -> Rng.next_int64 child) in
  check Alcotest.bool "children diverge" true (xs <> ys)

let test_rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_invalid () =
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 1) 0))

let test_mean_simple () =
  check (Alcotest.float 1e-9) "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |])

let test_mean_empty () = check (Alcotest.float 1e-9) "mean []" 0.0 (Stats.mean [||])

let test_variance () =
  (* sample variance of 2,4,4,4,5,5,7,9 is 4.571428... *)
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check (Alcotest.float 1e-6) "variance" (32.0 /. 7.0) (Stats.variance xs)

let test_variance_singleton () =
  check (Alcotest.float 1e-9) "variance [x]" 0.0 (Stats.variance [| 5.0 |])

let test_median_odd () =
  check (Alcotest.float 1e-9) "median odd" 3.0 (Stats.median [| 5.0; 3.0; 1.0 |])

let test_median_even () =
  check (Alcotest.float 1e-9) "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_ci99_shrinks () =
  let tight = Array.make 100 1.0 in
  check (Alcotest.float 1e-9) "ci of constant" 0.0 (Stats.ci99_halfwidth tight);
  let loose = Array.init 100 (fun i -> if i mod 2 = 0 then 0.0 else 2.0) in
  check Alcotest.bool "ci positive for spread" true (Stats.ci99_halfwidth loose > 0.0)

let test_measure_until_ci_constant () =
  let calls = ref 0 in
  let m = Stats.measure_until_ci (fun () -> incr calls; 1.0) in
  check Alcotest.int "min samples" 5 m.samples;
  check (Alcotest.float 1e-9) "mean" 1.0 m.mean

let test_measure_until_ci_converges () =
  let r = Rng.create 11 in
  let m =
    Stats.measure_until_ci ~rel_ci:0.2 ~max_samples:2000 (fun () ->
        10.0 +. Rng.gaussian r)
  in
  check Alcotest.bool "converged within budget" true (m.samples < 2000);
  check Alcotest.bool "ci within bound" true (m.ci99 <= 0.2 *. m.mean)

let test_measure_until_ci_respects_max () =
  let r = Rng.create 21 in
  (* wildly noisy samples never converge: the cap must stop the loop *)
  let m =
    Stats.measure_until_ci ~rel_ci:0.0001 ~max_samples:37 (fun () ->
        Rng.float r 1000.0)
  in
  check Alcotest.int "capped" 37 m.samples

let test_table_cell_accessors () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "y"; "2" ];
  check (Alcotest.list (Alcotest.list Alcotest.string)) "rows skip separators"
    [ [ "x"; "1" ]; [ "y"; "2" ] ]
    (Table.rows t);
  check Alcotest.string "cell" "2" (Table.cell t ~row:1 ~col:"b");
  Alcotest.check_raises "bad col" (Invalid_argument "Table.cell: no column \"c\"")
    (fun () -> ignore (Table.cell t ~row:0 ~col:"c"))

let test_product () =
  check Alcotest.int "product" 24 (Util.product [| 2; 3; 4 |]);
  check Alcotest.int "empty product" 1 (Util.product [||])

let test_divisors () =
  check (Alcotest.list Alcotest.int) "divisors 12" [ 1; 2; 3; 4; 6; 12 ]
    (Util.divisors 12);
  check (Alcotest.list Alcotest.int) "divisors 1" [ 1 ] (Util.divisors 1);
  check (Alcotest.list Alcotest.int) "divisors 16" [ 1; 2; 4; 8; 16 ] (Util.divisors 16)

let test_ceil_div () =
  check Alcotest.int "7/2" 4 (Util.ceil_div 7 2);
  check Alcotest.int "8/2" 4 (Util.ceil_div 8 2);
  check Alcotest.int "0/3" 0 (Util.ceil_div 0 3)

let test_pow2_up_to () =
  check (Alcotest.list Alcotest.int) "pow2 10" [ 1; 2; 4; 8 ] (Util.pow2_up_to 10);
  check (Alcotest.list Alcotest.int) "pow2 1" [ 1 ] (Util.pow2_up_to 1)

let test_float_equal () =
  check Alcotest.bool "close" true (Util.float_equal 1.0 (1.0 +. 1e-9));
  check Alcotest.bool "far" false (Util.float_equal 1.0 1.1)

let test_string_of_dims () =
  check Alcotest.string "dims" "4096x4096" (Util.string_of_dims [| 4096; 4096 |])

let test_table_render () =
  let t = Table.create ~headers:[ "name"; "value" ] in
  Table.add_row t [ "dot"; "1.5" ];
  Table.add_row t [ "matmul"; "12.25" ];
  let s = Table.render t in
  check Alcotest.bool "contains row" true
    (Test_util.contains s "dot" && Test_util.contains s "12.25")

let test_table_arity () =
  let t = Table.create ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only one" ])

(* qcheck properties *)

let prop_divisors_divide =
  QCheck2.Test.make ~name:"divisors all divide" ~count:200
    QCheck2.Gen.(int_range 1 5000)
    (fun n -> List.for_all (fun d -> n mod d = 0) (Mdh_support.Util.divisors n))

let prop_ceil_div =
  QCheck2.Test.make ~name:"ceil_div bounds" ~count:500
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 1000))
    (fun (a, b) ->
      let q = Mdh_support.Util.ceil_div a b in
      (q * b >= a) && ((q - 1) * b < a || q = 0))

(* --- rank correlation --- *)

let feq = Mdh_support.Util.float_equal ~rel:1e-9 ~abs:1e-9

let test_ranks_mid () =
  (* ties get the mid-rank: [10;20;20;30] -> [1; 2.5; 2.5; 4] *)
  let r = Stats.ranks [| 10.0; 20.0; 20.0; 30.0 |] in
  check Alcotest.bool "mid-ranks" true
    (feq r.(0) 1.0 && feq r.(1) 2.5 && feq r.(2) 2.5 && feq r.(3) 4.0)

let test_spearman_perfect () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let ys = [| 10.0; 20.0; 40.0; 80.0; 160.0 |] in
  check Alcotest.bool "monotone -> +1" true (feq (Stats.spearman xs ys) 1.0);
  check Alcotest.bool "kendall +1" true (feq (Stats.kendall xs ys) 1.0)

(* the deliberately mis-ranked toy model: predicted cost ordering exactly
   inverts the measured one, so both coefficients must pin -1 — the
   accuracy tracker's worst case, not a degenerate input *)
let test_misranked_toy_model () =
  let predicted = [| 0.001; 0.002; 0.004; 0.008; 0.016 |] in
  let measured = [| 0.9; 0.5; 0.1; 0.05; 0.01 |] in
  check Alcotest.bool "spearman -1" true
    (feq (Stats.spearman predicted measured) (-1.0));
  check Alcotest.bool "kendall -1" true
    (feq (Stats.kendall predicted measured) (-1.0))

let test_correlation_degenerate () =
  (* a constant variable has no ranking to correlate against *)
  check Alcotest.bool "constant -> nan" true
    (Float.is_nan (Stats.spearman [| 1.0; 1.0; 1.0 |] [| 1.0; 2.0; 3.0 |]));
  check Alcotest.bool "short -> nan" true
    (Float.is_nan (Stats.kendall [| 1.0 |] [| 2.0 |]))

let test_kendall_ties () =
  (* tau-b with one tied pair on x: 5 pairs, 1 tie on x, all concordant
     otherwise: (5-0)/sqrt((6-1)*6) ~ 0.913 *)
  let t = Stats.kendall [| 1.0; 2.0; 2.0; 3.0 |] [| 1.0; 2.0; 3.0; 4.0 |] in
  check Alcotest.bool "tau-b in (0.9, 0.93)" true (t > 0.9 && t < 0.93)

(* --- json reader --- *)

let test_json_roundtrip () =
  let j =
    Json_in.parse
      {|{"a": 1.5, "b": [true, null, "x\n"], "nested": {"k": -2e3}}|}
  in
  check Alcotest.(option (float 1e-9)) "number" (Some 1.5) (Json_in.get_float j "a");
  (match Json_in.get_list j "b" with
  | Some [ Json_in.Bool true; Json_in.Null; Json_in.Str "x\n" ] -> ()
  | _ -> Alcotest.fail "array content");
  match Json_in.member "nested" j with
  | Some n ->
    check Alcotest.(option (float 1e-9)) "nested number" (Some (-2000.0))
      (Json_in.get_float n "k")
  | None -> Alcotest.fail "nested object"

let test_json_rejects_garbage () =
  let bad s =
    match Json_in.parse s with
    | exception Json_in.Parse_error _ -> true
    | _ -> false
  in
  check Alcotest.bool "trailing garbage" true (bad "{} x");
  check Alcotest.bool "unterminated string" true (bad {|{"a": "b|});
  check Alcotest.bool "bare word" true (bad "flase")

let test_json_accessor_mismatch () =
  let j = Json_in.parse {|{"s": "str"}|} in
  check Alcotest.bool "wrong type is None" true (Json_in.get_float j "s" = None);
  check Alcotest.bool "missing key is None" true (Json_in.get_float j "zz" = None)

(* --- memo --- *)

let counter name = Mdh_obs.Metrics.(value (counter name))

let test_memo_caches () =
  let memo = Memo.create "test.memo.caches" in
  let computed = ref 0 in
  let get () = Memo.find_or_add memo "k" (fun () -> incr computed; 42) in
  check Alcotest.int "first" 42 (get ());
  check Alcotest.int "second" 42 (get ());
  check Alcotest.int "computed once" 1 !computed;
  let stats = Memo.stats memo in
  check Alcotest.int "hits" 1 stats.Memo.n_hits;
  check Alcotest.int "misses" 1 stats.Memo.n_misses;
  check Alcotest.int "entries" 1 stats.Memo.n_entries;
  (* the registry counters are the table's accounting, not a mirror *)
  check Alcotest.int "hits = registry" stats.Memo.n_hits (counter "test.memo.caches.hits");
  check Alcotest.int "misses = registry" stats.Memo.n_misses
    (counter "test.memo.caches.misses")

let test_memo_names () =
  let a = Memo.create "test.memo.names.a" and b = Memo.create "test.memo.names.b" in
  ignore (Memo.find_or_add a "k" (fun () -> 1));
  ignore (Memo.find_or_add a "k" (fun () -> 1));
  ignore (Memo.find_or_add b "k" (fun () -> 2));
  let sa = Memo.stats a and sb = Memo.stats b in
  check Alcotest.(pair int int) "a: 1 hit, 1 miss" (1, 1) (sa.Memo.n_hits, sa.Memo.n_misses);
  check Alcotest.(pair int int) "b: 0 hits, 1 miss" (0, 1) (sb.Memo.n_hits, sb.Memo.n_misses);
  check Alcotest.bool "duplicate name refused" true
    (match Memo.create "test.memo.names.a" with
     | (_ : int Memo.t) -> false
     | exception Invalid_argument _ -> true)

let test_memo_disabled () =
  let memo = Memo.create "test.memo.disabled" in
  ignore (Memo.find_or_add memo "k" (fun () -> 0));
  let computed = ref 0 in
  Memo.set_caching false;
  Fun.protect ~finally:(fun () -> Memo.set_caching true) (fun () ->
      for _ = 1 to 3 do
        ignore (Memo.find_or_add memo "k" (fun () -> incr computed; 0))
      done);
  check Alcotest.int "always computes" 3 !computed;
  let stats = Memo.stats memo in
  check Alcotest.int "each call a miss" 4 stats.Memo.n_misses;
  check Alcotest.int "no hits" 0 stats.Memo.n_hits;
  (* switched back on, the entry cached before is served again *)
  ignore (Memo.find_or_add memo "k" (fun () -> incr computed; 0));
  check Alcotest.int "cached once enabled" 3 !computed

let test_memo_clear () =
  let memo = Memo.create "test.memo.clear" in
  ignore (Memo.find_or_add memo "k" (fun () -> 1));
  Memo.clear memo;
  let stats = Memo.stats memo in
  check Alcotest.int "no entries" 0 stats.Memo.n_entries;
  check Alcotest.int "counters kept" 1 stats.Memo.n_misses;
  ignore (Memo.find_or_add memo "k" (fun () -> 1));
  check Alcotest.int "recomputed after clear" 2 (Memo.stats memo).Memo.n_misses

let test_memo_hammer () =
  let memo = Memo.create "test.memo.hammer" in
  let keys = 16 and calls_per_domain = 2000 in
  let worker d () =
    let ok = ref true in
    for i = 0 to calls_per_domain - 1 do
      let k = (i * 7 + d) mod keys in
      let v = Memo.find_or_add memo (string_of_int k) (fun () -> k * k) in
      if v <> k * k then ok := false
    done;
    !ok
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  let oks = List.map Domain.join domains in
  check Alcotest.bool "correct values" true (List.for_all Fun.id oks);
  let stats = Memo.stats memo in
  check Alcotest.int "hits + misses = calls" (4 * calls_per_domain)
    (stats.Memo.n_hits + stats.Memo.n_misses);
  check Alcotest.int "entries" keys stats.Memo.n_entries

let test_memo_key () =
  check Alcotest.string "deterministic" (Memo.key [ "a"; "b" ]) (Memo.key [ "a"; "b" ]);
  check Alcotest.bool "order sensitive" true (Memo.key [ "a"; "b" ] <> Memo.key [ "b"; "a" ]);
  (* the separator must prevent concatenation collisions *)
  check Alcotest.bool "no concat collision" true
    (Memo.key [ "ab"; "c" ] <> Memo.key [ "a"; "bc" ])

let suite =
  let tc = Alcotest.test_case in
  ( "support",
    [ tc "rng deterministic" `Quick test_rng_deterministic;
      tc "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
      tc "rng int bounds" `Quick test_rng_int_bounds;
      tc "rng int_in bounds" `Quick test_rng_int_in;
      tc "rng float bounds" `Quick test_rng_float_bounds;
      tc "rng split independent" `Quick test_rng_split_independent;
      tc "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
      tc "rng invalid bound" `Quick test_rng_invalid;
      tc "stats mean" `Quick test_mean_simple;
      tc "stats mean empty" `Quick test_mean_empty;
      tc "stats variance" `Quick test_variance;
      tc "stats variance singleton" `Quick test_variance_singleton;
      tc "stats median odd" `Quick test_median_odd;
      tc "stats median even" `Quick test_median_even;
      tc "stats ci99" `Quick test_ci99_shrinks;
      tc "stats measure constant" `Quick test_measure_until_ci_constant;
      tc "stats measure converges" `Quick test_measure_until_ci_converges;
      tc "stats measure respects cap" `Quick test_measure_until_ci_respects_max;
      tc "stats ranks mid-rank ties" `Quick test_ranks_mid;
      tc "stats spearman perfect" `Quick test_spearman_perfect;
      tc "stats mis-ranked toy model" `Quick test_misranked_toy_model;
      tc "stats correlation degenerate" `Quick test_correlation_degenerate;
      tc "stats kendall tau-b ties" `Quick test_kendall_ties;
      tc "json_in roundtrip" `Quick test_json_roundtrip;
      tc "json_in rejects garbage" `Quick test_json_rejects_garbage;
      tc "json_in accessor mismatch" `Quick test_json_accessor_mismatch;
      tc "table cell accessors" `Quick test_table_cell_accessors;
      tc "util product" `Quick test_product;
      tc "util divisors" `Quick test_divisors;
      tc "util ceil_div" `Quick test_ceil_div;
      tc "util pow2_up_to" `Quick test_pow2_up_to;
      tc "util float_equal" `Quick test_float_equal;
      tc "util string_of_dims" `Quick test_string_of_dims;
      tc "table render" `Quick test_table_render;
      tc "table arity" `Quick test_table_arity;
      tc "memo caches" `Quick test_memo_caches;
      tc "memo names" `Quick test_memo_names;
      tc "memo disabled" `Quick test_memo_disabled;
      tc "memo clear" `Quick test_memo_clear;
      tc "memo hammer" `Quick test_memo_hammer;
      tc "memo key" `Quick test_memo_key;
      QCheck_alcotest.to_alcotest prop_divisors_divide;
      QCheck_alcotest.to_alcotest prop_ceil_div ] )
