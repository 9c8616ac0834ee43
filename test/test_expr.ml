(* Unit tests for Mdh_expr: AST, typecheck, eval, analysis. *)

open Mdh_expr
module Scalar = Mdh_tensor.Scalar

let check = Alcotest.check

let env_with ?(iter_vars = [ "i"; "k" ]) buffers =
  { Typecheck.iter_vars; buffer_ty = (fun name -> List.assoc_opt name buffers) }

let ok_ty = Alcotest.result (Alcotest.testable Scalar.pp_ty Scalar.equal_ty)
    (Alcotest.of_pp Typecheck.pp_error)

let matvec_body =
  Expr.(read "M" [ idx "i"; idx "k" ] * read "v" [ idx "k" ])

let test_infer_matvec () =
  let env = env_with [ ("M", Scalar.Fp32); ("v", Scalar.Fp32) ] in
  check ok_ty "fp32" (Ok Scalar.Fp32) (Typecheck.infer env matvec_body)

let test_infer_unknown_buffer () =
  let env = env_with [] in
  check Alcotest.bool "error" true (Result.is_error (Typecheck.infer env matvec_body))

let test_infer_unknown_iter_var () =
  let env = env_with ~iter_vars:[ "i" ] [ ("M", Scalar.Fp32); ("v", Scalar.Fp32) ] in
  check Alcotest.bool "error" true (Result.is_error (Typecheck.infer env matvec_body))

let test_infer_mixed_types () =
  let env = env_with [ ("M", Scalar.Fp32); ("v", Scalar.Fp64) ] in
  check Alcotest.bool "mismatch" true (Result.is_error (Typecheck.infer env matvec_body))

let test_infer_comparison () =
  let env = env_with [] in
  check ok_ty "bool" (Ok Scalar.Bool) (Typecheck.infer env Expr.(idx "i" < idx "k"))

let test_infer_if_branches () =
  let env = env_with [] in
  check ok_ty "if ok" (Ok Scalar.Int32)
    (Typecheck.infer env Expr.(if_ (idx "i" < idx "k") (int 1) (int 2)));
  check Alcotest.bool "branch mismatch" true
    (Result.is_error
       (Typecheck.infer env Expr.(if_ (idx "i" < idx "k") (int 1) (f32 2.0))))

let test_infer_let () =
  let env = env_with [ ("M", Scalar.Fp32); ("v", Scalar.Fp32) ] in
  check ok_ty "let" (Ok Scalar.Fp32)
    (Typecheck.infer env Expr.(let_ "t" matvec_body (var "t" + var "t")))

let test_infer_unbound_var () =
  let env = env_with [] in
  check Alcotest.bool "unbound" true (Result.is_error (Typecheck.infer env (Expr.var "t")))

let test_infer_record () =
  let rec_ty = Scalar.Record [ ("w", Scalar.Fp64); ("id", Scalar.Int32) ] in
  let env = env_with [ ("db", rec_ty) ] in
  check ok_ty "field" (Ok Scalar.Fp64)
    (Typecheck.infer env Expr.(field (read "db" [ idx "i" ]) "w"));
  check Alcotest.bool "bad field" true
    (Result.is_error (Typecheck.infer env Expr.(field (read "db" [ idx "i" ]) "nope")))

let test_infer_mkrecord () =
  let env = env_with [] in
  check ok_ty "mkrecord"
    (Ok (Scalar.Record [ ("a", Scalar.Int32); ("b", Scalar.Bool) ]))
    (Typecheck.infer env (Expr.MkRecord [ ("a", Expr.int 1); ("b", Expr.(int 1 < int 2)) ]))

let test_infer_bool_ops () =
  let env = env_with [] in
  check ok_ty "and" (Ok Scalar.Bool)
    (Typecheck.infer env Expr.((int 1 < int 2) && (int 3 < int 4)));
  check Alcotest.bool "and on ints" true
    (Result.is_error (Typecheck.infer env Expr.(int 1 && int 2)))

let test_infer_cast () =
  let env = env_with [] in
  check ok_ty "cast" (Ok Scalar.Fp32)
    (Typecheck.infer env Expr.(cast Scalar.Fp32 (idx "i")))

let test_infer_nonintegral_index () =
  let env = env_with [ ("v", Scalar.Fp32) ] in
  check Alcotest.bool "float index" true
    (Result.is_error (Typecheck.infer env Expr.(read "v" [ f32 1.0 ])))

(* --- eval --- *)

let mk_ctx ?(iter = [ ("i", 1); ("k", 2) ]) reads =
  { Eval.iter;
    read = (fun buf idx ->
        match List.assoc_opt (buf, Array.to_list idx) reads with
        | Some v -> v
        | None -> raise (Eval.Eval_error ("no data for " ^ buf))) }

let test_eval_matvec_point () =
  let ctx =
    mk_ctx [ (("M", [ 1; 2 ]), Scalar.f32 3.0); (("v", [ 2 ]), Scalar.f32 4.0) ]
  in
  check Test_util.scalar_value "product" (Scalar.f32 12.0) (Eval.eval ctx matvec_body)

let test_eval_let_shadowing () =
  let ctx = mk_ctx [] in
  let e = Expr.(let_ "x" (int 1) (let_ "x" (int 2) (var "x"))) in
  check Test_util.scalar_value "inner wins" (Scalar.i32 2) (Eval.eval ctx e)

let test_eval_if () =
  let ctx = mk_ctx [] in
  check Test_util.scalar_value "then" (Scalar.i32 10)
    (Eval.eval ctx Expr.(if_ (idx "i" < idx "k") (int 10) (int 20)));
  check Test_util.scalar_value "else" (Scalar.i32 20)
    (Eval.eval ctx Expr.(if_ (idx "k" < idx "i") (int 10) (int 20)))

let test_eval_short_circuit () =
  (* the right operand of && must not be evaluated when the left is false *)
  let ctx = mk_ctx [] in
  let exploding = Expr.(read "boom" [ int 0 ] > f32 0.0) in
  check Test_util.scalar_value "short-circuit and" (Scalar.B false)
    (Eval.eval ctx Expr.(int 2 < int 1 && exploding));
  check Test_util.scalar_value "short-circuit or" (Scalar.B true)
    (Eval.eval ctx Expr.(int 1 < int 2 || exploding))

let test_eval_index () =
  let ctx = mk_ctx [] in
  check Alcotest.int "2*i+k" 4 (Eval.eval_index ctx Expr.((int 2 * idx "i") + idx "k"))

let test_eval_record_roundtrip () =
  let ctx = mk_ctx [] in
  let e = Expr.(field (MkRecord [ ("a", int 7); ("b", f64 1.0) ]) "a") in
  check Test_util.scalar_value "field" (Scalar.i32 7) (Eval.eval ctx e)

let test_eval_cast () =
  let ctx = mk_ctx [] in
  check Test_util.scalar_value "i32 to f64" (Scalar.F64 3.0)
    (Eval.eval ctx Expr.(cast Scalar.Fp64 (int 3)))

let test_eval_unbound () =
  let ctx = mk_ctx [] in
  Alcotest.check_raises "unbound" (Eval.Eval_error "unbound local variable \"z\"")
    (fun () -> ignore (Eval.eval ctx (Expr.var "z")))

(* --- analysis --- *)

let dims = [| "i"; "k" |]

let test_affine_extraction_simple () =
  match Analysis.affine_of_index_exprs ~dims Expr.[ idx "i"; idx "k" ] with
  | Some fn ->
    check (Alcotest.array Alcotest.int) "apply" [| 3; 4 |]
      (Mdh_tensor.Index_fn.apply fn [| 3; 4 |])
  | None -> Alcotest.fail "expected affine"

let test_affine_extraction_strided () =
  match Analysis.affine_of_index_exprs ~dims Expr.[ (int 2 * idx "i") + idx "k" - int 1 ] with
  | Some fn ->
    check (Alcotest.array Alcotest.int) "2i+k-1" [| 9 |]
      (Mdh_tensor.Index_fn.apply fn [| 3; 4 |])
  | None -> Alcotest.fail "expected affine"

let test_affine_extraction_neg () =
  match Analysis.affine_of_index_exprs ~dims Expr.[ Unop (Neg, idx "i") + idx "k" ] with
  | Some fn ->
    check (Alcotest.array Alcotest.int) "-i+k" [| 1 |]
      (Mdh_tensor.Index_fn.apply fn [| 3; 4 |])
  | None -> Alcotest.fail "expected affine"

let test_affine_extraction_fails_on_product () =
  check Alcotest.bool "i*k not affine" true
    (Analysis.affine_of_index_exprs ~dims Expr.[ idx "i" * idx "k" ] = None)

let test_affine_extraction_fails_on_read () =
  check Alcotest.bool "read not affine" true
    (Analysis.affine_of_index_exprs ~dims Expr.[ read "perm" [ idx "i" ] ] = None)

let test_opaque_fallback_evaluates () =
  let fn = Analysis.index_fn_of_exprs ~dims Expr.[ idx "i" * idx "k" ] in
  check Alcotest.bool "opaque" true (not (Mdh_tensor.Index_fn.is_affine fn));
  check (Alcotest.array Alcotest.int) "apply" [| 12 |]
    (Mdh_tensor.Index_fn.apply fn [| 3; 4 |])

let test_reads_collection () =
  let e = Expr.(read "A" [ idx "i" ] + (read "A" [ idx "i" ] * read "B" [ idx "k" ])) in
  let rs = Analysis.reads e in
  check Alcotest.int "three textual reads" 3 (List.length rs);
  check (Alcotest.list Alcotest.string) "order" [ "A"; "A"; "B" ] (List.map fst rs)

let test_flops_counting () =
  check Alcotest.int "mul" 1 (Analysis.flops matvec_body);
  check Alcotest.int "fma" 2 (Analysis.flops Expr.(matvec_body + f32 1.0));
  (* conditional: worst-case branch *)
  check Alcotest.int "if" 3
    (Analysis.flops Expr.(if_ (idx "i" < int 1) (f32 1.0 + f32 2.0) (f32 0.0)))

let test_data_dependent_branch () =
  check Alcotest.bool "plain" false (Analysis.contains_data_dependent_branch matvec_body);
  let prl_like =
    Expr.(if_ (field (read "db" [ idx "i" ]) "m" = int 14) (int 1) (int 0))
  in
  check Alcotest.bool "direct" true (Analysis.contains_data_dependent_branch prl_like);
  let through_let =
    Expr.(let_ "t" (read "db" [ idx "i" ]) (if_ (field (var "t") "m" = int 14) (int 1) (int 0)))
  in
  check Alcotest.bool "via let" true (Analysis.contains_data_dependent_branch through_let);
  let iter_cond = Expr.(if_ (idx "i" < int 3) (read "db" [ idx "i" ]) (read "db" [ int 0 ])) in
  check Alcotest.bool "iteration-dependent only" false
    (Analysis.contains_data_dependent_branch iter_cond)

(* --- simplify: the rewriter's tier-1 fixpoint --- *)

let simplify = Mdh_rewrite.Rewrite.simplify_expr

let test_simplify_units () =
  let open Expr in
  let checks =
    [ (idx "i" + int 0, idx "i");
      (int 0 + idx "i", idx "i");
      (idx "i" - int 0, idx "i");
      (int 1 * idx "i", idx "i");
      (idx "i" * int 1, idx "i");
      (int 2 + int 3, int 5);
      (int 4 * int 5, int 20);
      (Unop (Neg, Unop (Neg, idx "i")), idx "i");
      (if_ (Const (Scalar.B true)) (int 1) (int 2), int 1);
      (if_ (Const (Scalar.B false)) (int 1) (int 2), int 2);
      (let_ "t" (int 5) (idx "i"), idx "i");
      (Binop (And, Const (Scalar.B true), idx "i" < int 3), idx "i" < int 3);
      (* partial operands are kept: both raise Division_by_zero *)
      (int 0 * (idx "i" / int 0), int 0 * (idx "i" / int 0));
      (let_ "t" (idx "i" / int 0) (idx "i"), let_ "t" (idx "i" / int 0) (idx "i")) ]
  in
  List.iter
    (fun (input, expected) ->
      check Alcotest.string (Expr.to_string input) (Expr.to_string expected)
        (Expr.to_string (simplify input)))
    checks

let test_simplify_keeps_used_lets () =
  let e = Expr.(let_ "t" (read "v" [ idx "i" ]) (var "t" + var "t")) in
  check Alcotest.string "kept" (Expr.to_string e) (Expr.to_string (simplify e))

let test_simplify_preserves_floats () =
  (* float arithmetic must not be folded: rounding is semantics *)
  let e = Expr.(f32 0.1 + f32 0.2) in
  check Alcotest.string "unfolded" (Expr.to_string e) (Expr.to_string (simplify e))

(* simplification is semantics-preserving on random integer expressions,
   including partial ones (integer division) and lets whose binding is used
   or unused *)
let gen_int_expr =
  QCheck2.Gen.(
    let base bound =
      oneof
        ([ map Expr.int (int_range (-5) 5);
           oneofl [ Expr.idx "i"; Expr.idx "k" ] ]
        @ if bound then [ return (Expr.var "t") ] else [])
    in
    let rec build n bound =
      if n = 0 then base bound
      else
        let sub = build (n - 1) bound in
        oneof
          [ base bound;
            map2 (fun a b -> Expr.(a + b)) sub sub;
            map2 (fun a b -> Expr.(a - b)) sub sub;
            map2 (fun a b -> Expr.(a * b)) sub sub;
            map2 (fun a b -> Expr.(a / b)) sub sub;
            map3 (fun c a b -> Expr.(if_ (c < int 2) a b)) sub sub sub;
            map (fun a -> Expr.Unop (Expr.Neg, a)) sub;
            map2 (fun v body -> Expr.let_ "t" v body) sub (build (n - 1) true) ]
    in
    build 4 false)

let prop_simplify_preserves_semantics =
  QCheck2.Test.make ~name:"simplify preserves evaluation" ~count:500
    QCheck2.Gen.(triple gen_int_expr (int_range (-3) 3) (int_range (-3) 3))
    (fun (e, i, k) ->
      let ctx =
        { Eval.iter = [ ("i", i); ("k", k) ];
          read = (fun _ _ -> raise (Eval.Eval_error "no buffers")) }
      in
      let outcome e = try Some (Eval.eval ctx e) with Division_by_zero -> None in
      match (outcome e, outcome (simplify e)) with
      | Some v, Some v' -> Scalar.equal v v'
      | None, None -> true
      | _ -> false)

let test_free_idx_vars () =
  check (Alcotest.list Alcotest.string) "order" [ "i"; "k" ]
    (Expr.free_idx_vars matvec_body)

let suite =
  let tc = Alcotest.test_case in
  ( "expr",
    [ tc "infer matvec" `Quick test_infer_matvec;
      tc "infer unknown buffer" `Quick test_infer_unknown_buffer;
      tc "infer unknown iter var" `Quick test_infer_unknown_iter_var;
      tc "infer mixed types" `Quick test_infer_mixed_types;
      tc "infer comparison" `Quick test_infer_comparison;
      tc "infer if branches" `Quick test_infer_if_branches;
      tc "infer let" `Quick test_infer_let;
      tc "infer unbound var" `Quick test_infer_unbound_var;
      tc "infer record" `Quick test_infer_record;
      tc "infer mkrecord" `Quick test_infer_mkrecord;
      tc "infer bool ops" `Quick test_infer_bool_ops;
      tc "infer cast" `Quick test_infer_cast;
      tc "infer nonintegral index" `Quick test_infer_nonintegral_index;
      tc "eval matvec point" `Quick test_eval_matvec_point;
      tc "eval let shadowing" `Quick test_eval_let_shadowing;
      tc "eval if" `Quick test_eval_if;
      tc "eval short circuit" `Quick test_eval_short_circuit;
      tc "eval index" `Quick test_eval_index;
      tc "eval record" `Quick test_eval_record_roundtrip;
      tc "eval cast" `Quick test_eval_cast;
      tc "eval unbound" `Quick test_eval_unbound;
      tc "affine simple" `Quick test_affine_extraction_simple;
      tc "affine strided" `Quick test_affine_extraction_strided;
      tc "affine negation" `Quick test_affine_extraction_neg;
      tc "affine rejects product" `Quick test_affine_extraction_fails_on_product;
      tc "affine rejects read" `Quick test_affine_extraction_fails_on_read;
      tc "opaque fallback" `Quick test_opaque_fallback_evaluates;
      tc "reads collection" `Quick test_reads_collection;
      tc "flops counting" `Quick test_flops_counting;
      tc "data-dependent branch" `Quick test_data_dependent_branch;
      tc "simplify unit laws" `Quick test_simplify_units;
      tc "simplify keeps used lets" `Quick test_simplify_keeps_used_lets;
      tc "simplify preserves floats" `Quick test_simplify_preserves_floats;
      QCheck_alcotest.to_alcotest prop_simplify_preserves_semantics;
      tc "free idx vars" `Quick test_free_idx_vars ] )
