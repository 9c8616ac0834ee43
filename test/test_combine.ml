(* Unit and property tests for combine operators (cc, pw, ps). *)

module Scalar = Mdh_tensor.Scalar
module Dense = Mdh_tensor.Dense
open Mdh_combine

let check = Alcotest.check

let i32_tensor xs = Dense.of_fn Scalar.Int32 [| Array.length xs |] (fun i -> Scalar.i32 xs.(i.(0)))

let test_names () =
  check Alcotest.string "cc" "cc" (Combine.name Combine.cc);
  check Alcotest.string "pw" "pw(add)" (Combine.name (Combine.pw (Combine.add Scalar.Fp32)));
  check Alcotest.string "ps" "ps(add)" (Combine.name (Combine.ps (Combine.add Scalar.Fp32)))

let test_classification () =
  check Alcotest.bool "cc not reduction" false (Combine.is_reduction Combine.cc);
  check Alcotest.bool "pw reduction" true
    (Combine.is_reduction (Combine.pw (Combine.add Scalar.Fp32)));
  check Alcotest.bool "ps reduction" true
    (Combine.is_reduction (Combine.ps (Combine.add Scalar.Fp32)));
  check Alcotest.bool "only pw collapses" true
    (Combine.collapses (Combine.pw (Combine.add Scalar.Fp32))
    && (not (Combine.collapses Combine.cc))
    && not (Combine.collapses (Combine.ps (Combine.add Scalar.Fp32))))

let test_result_extent () =
  check Alcotest.int "cc keeps" 7 (Combine.result_extent Combine.cc 7);
  check Alcotest.int "pw collapses" 1
    (Combine.result_extent (Combine.pw (Combine.add Scalar.Int32)) 7);
  check Alcotest.int "ps keeps" 7
    (Combine.result_extent (Combine.ps (Combine.add Scalar.Int32)) 7)

let test_parallelisable () =
  check Alcotest.bool "cc" true (Combine.parallelisable Combine.cc);
  check Alcotest.bool "pw add" true
    (Combine.parallelisable (Combine.pw (Combine.add Scalar.Fp32)));
  let non_assoc = Combine.custom ~name:"sub" ~associative:false Scalar.sub in
  check Alcotest.bool "non-assoc pw" false (Combine.parallelisable (Combine.pw non_assoc))

let test_builtin_flags () =
  check Alcotest.bool "add builtin" true (Combine.add Scalar.Fp32).Combine.builtin;
  let custom = Combine.custom ~name:"prl_max" (fun a _ -> a) in
  check Alcotest.bool "custom not builtin" false custom.Combine.builtin

(* An operator with a body: type-checked, applied through Eval, keyed by
   its body as well as its name *)
let test_operator_bodies () =
  let module Expr = Mdh_expr.Expr in
  let lhs = Expr.var "lhs" and rhs = Expr.var "rhs" in
  let larger = Combine.of_body ~name:"larger" ~ty:Scalar.Int32 Expr.(if_ (lhs >= rhs) lhs rhs) in
  check Test_util.scalar_value "applies its body" (Scalar.i32 7)
    (larger.Combine.apply (Scalar.i32 3) (Scalar.i32 7));
  check Alcotest.bool "not builtin" false larger.Combine.builtin;
  let smaller = Combine.of_body ~name:"larger" ~ty:Scalar.Int32 Expr.(if_ (lhs <= rhs) lhs rhs) in
  check Alcotest.bool "same name, different keys" false
    (String.equal (Combine.key larger) (Combine.key smaller));
  check Alcotest.string "a closure is keyed by its name" "bor"
    (Combine.key (Combine.bor Scalar.Int32));
  let ill_typed body =
    match Combine.of_body ~name:"bad" ~ty:Scalar.Int32 body with
    | _ -> Alcotest.failf "accepted %s" (Expr.to_string body)
    | exception Invalid_argument _ -> ()
  in
  ill_typed Expr.(lhs < rhs);
  ill_typed Expr.(lhs + f64 1.0);
  ill_typed Expr.(var "acc" + rhs)

let test_combine_cc () =
  let lhs = i32_tensor [| 1; 2 |] and rhs = i32_tensor [| 3 |] in
  let out = Combine.combine_partials Combine.cc ~dim:0 lhs rhs in
  check Test_util.dense "concat" (i32_tensor [| 1; 2; 3 |]) out

let test_combine_pw () =
  let lhs = i32_tensor [| 5 |] and rhs = i32_tensor [| 7 |] in
  let out =
    Combine.combine_partials (Combine.pw (Combine.add Scalar.Int32)) ~dim:0 lhs rhs
  in
  check Test_util.dense "sum" (i32_tensor [| 12 |]) out

let test_combine_pw_requires_collapsed () =
  let lhs = i32_tensor [| 1; 2 |] and rhs = i32_tensor [| 3; 4 |] in
  Alcotest.check_raises "extent"
    (Invalid_argument "Combine.combine_partials: pw operands must have extent 1")
    (fun () ->
      ignore
        (Combine.combine_partials (Combine.pw (Combine.add Scalar.Int32)) ~dim:0 lhs rhs))

let test_combine_ps () =
  (* scan([1;2;3;4]) split as [1;3] ++ [3+3; 3+7] = [1;3;6;10] *)
  let lhs = i32_tensor [| 1; 3 |] (* already scanned prefix *) in
  let rhs = i32_tensor [| 3; 7 |] (* scanned suffix, without carry *) in
  let out =
    Combine.combine_partials (Combine.ps (Combine.add Scalar.Int32)) ~dim:0 lhs rhs
  in
  check Test_util.dense "scan merge" (i32_tensor [| 1; 3; 6; 10 |]) out

let test_combine_ps_2d () =
  (* column scans merged along dim 0, with a second cc-like dim of width 2 *)
  let mk rows = Dense.of_fn Scalar.Int32 [| Array.length rows; 2 |]
      (fun i -> Scalar.i32 rows.(i.(0)).(i.(1)))
  in
  let lhs = mk [| [| 1; 10 |]; [| 3; 30 |] |] in
  let rhs = mk [| [| 5; 50 |] |] in
  let out =
    Combine.combine_partials (Combine.ps (Combine.add Scalar.Int32)) ~dim:0 lhs rhs
  in
  check Test_util.dense "carry per column" (mk [| [| 1; 10 |]; [| 3; 30 |]; [| 8; 80 |] |]) out

(* Property: for associative f, combine_partials over a split equals a direct
   fold/scan over the whole array. *)

let gen_split_array =
  QCheck2.Gen.(
    let* n = int_range 2 20 in
    let* cut = int_range 1 (n - 1) in
    let* xs = list_size (return n) (int_range (-50) 50) in
    return (Array.of_list xs, cut))

let prop_pw_split =
  QCheck2.Test.make ~name:"pw split law (add)" ~count:300 gen_split_array
    (fun (xs, cut) ->
      let f = Combine.add Scalar.Int32 in
      let fold lo hi =
        let acc = ref (Scalar.i32 xs.(lo)) in
        for i = lo + 1 to hi do acc := f.Combine.apply !acc (Scalar.i32 xs.(i)) done;
        Dense.of_fn Scalar.Int32 [| 1 |] (fun _ -> !acc)
      in
      let whole = fold 0 (Array.length xs - 1) in
      let merged =
        Combine.combine_partials (Combine.pw f) ~dim:0 (fold 0 (cut - 1))
          (fold cut (Array.length xs - 1))
      in
      Dense.equal whole merged)

let prop_ps_split =
  QCheck2.Test.make ~name:"ps split law (add)" ~count:300 gen_split_array
    (fun (xs, cut) ->
      let f = Combine.add Scalar.Int32 in
      let scan lo hi =
        let out = Array.make (hi - lo + 1) (Scalar.i32 0) in
        let acc = ref (Scalar.i32 xs.(lo)) in
        out.(0) <- !acc;
        for i = lo + 1 to hi do
          acc := f.Combine.apply !acc (Scalar.i32 xs.(i));
          out.(i - lo) <- !acc
        done;
        Dense.of_fn Scalar.Int32 [| Array.length out |] (fun i -> out.(i.(0)))
      in
      let whole = scan 0 (Array.length xs - 1) in
      let merged =
        Combine.combine_partials (Combine.ps f) ~dim:0 (scan 0 (cut - 1))
          (scan cut (Array.length xs - 1))
      in
      Dense.equal whole merged)

let prop_cc_assoc =
  QCheck2.Test.make ~name:"cc associativity" ~count:200
    QCheck2.Gen.(triple (list_size (int_range 1 5) (int_range 0 9))
                   (list_size (int_range 1 5) (int_range 0 9))
                   (list_size (int_range 1 5) (int_range 0 9)))
    (fun (a, b, c) ->
      let t xs = i32_tensor (Array.of_list xs) in
      let cc = Combine.combine_partials Combine.cc ~dim:0 in
      Dense.equal (cc (cc (t a) (t b)) (t c)) (cc (t a) (cc (t b) (t c))))

(* declared-associative operators really are associative *)
let prop_builtin_ops_associative =
  QCheck2.Test.make ~name:"builtin pw ops associative" ~count:500
    QCheck2.Gen.(triple (int_range (-1000) 1000) (int_range (-1000) 1000)
                   (int_range (-1000) 1000))
    (fun (a, b, c) ->
      List.for_all
        (fun (f : Combine.custom_fn) ->
          let v x = Scalar.i64 x in
          Scalar.equal
            (f.apply (f.apply (v a) (v b)) (v c))
            (f.apply (v a) (f.apply (v b) (v c))))
        [ Combine.add Scalar.Int64; Combine.mul Scalar.Int64;
          Combine.max Scalar.Int64; Combine.min Scalar.Int64 ])

let prop_identity_laws =
  QCheck2.Test.make ~name:"declared identities are identities" ~count:500
    QCheck2.Gen.(int_range (-1000) 1000)
    (fun x ->
      List.for_all
        (fun (f : Combine.custom_fn) ->
          match f.identity with
          | None -> true
          | Some e ->
            let v = Scalar.i64 x in
            Scalar.equal (f.apply e v) v && Scalar.equal (f.apply v e) v)
        [ Combine.add Scalar.Int64; Combine.mul Scalar.Int64 ])

(* Catalogue audit pin: every custom combine operator shipped in the workload
   catalogue must survive property verification with zero violations — the
   declared associativity/commutativity/identity flags are never falsified by
   the exhaustive+randomised evaluation in Mdh_analysis.Opcheck. *)
let test_catalogue_ops_verified () =
  let module Validate = Mdh_directive.Validate in
  let module Opcheck = Mdh_analysis.Opcheck in
  List.iter
    (fun (w : Mdh_workloads.Workload.t) ->
      let dir = w.make w.test_params in
      match Validate.elaborate dir with
      | Error errors ->
        Alcotest.failf "catalogue workload %s no longer validates: %s" w.wl_name
          (String.concat "; " (List.map Validate.error_to_string errors))
      | Ok elab ->
        let ty =
          match elab.Validate.el_outs with
          | o :: _ -> o.Validate.eo_ty
          | [] -> Scalar.Fp32
        in
        Array.iter
          (fun op ->
            match op with
            | Combine.Cc -> ()
            | Combine.Pw fn | Combine.Ps fn ->
              let report = Opcheck.verify ~ty fn in
              (match Opcheck.violations fn report with
               | [] -> ()
               | (prop, witness) :: _ ->
                 Alcotest.failf "catalogue op %s (%s) mis-declares %s: %s"
                   fn.Combine.fn_name w.wl_name prop witness))
          elab.Validate.el_combine_ops)
    Mdh_workloads.Catalog.all

(* prl_best is declared fully associative+commutative (total order over all
   record fields); the verifier must confirm both, not merely fail to refute *)
let test_prl_best_verified () =
  let module Opcheck = Mdh_analysis.Opcheck in
  let fn = Mdh_workloads.Prl.prl_best in
  check Alcotest.bool "declared associative" true fn.Combine.associative;
  check Alcotest.bool "declared commutative" true fn.Combine.commutative;
  let report = Opcheck.verify ~ty:Mdh_workloads.Prl.match_record_ty fn in
  let verified = function Opcheck.Verified _ -> true | _ -> false in
  check Alcotest.bool "associativity verified" true (verified report.Opcheck.associativity);
  check Alcotest.bool "commutativity verified" true (verified report.Opcheck.commutativity);
  check Alcotest.(list (pair string string)) "no violations" []
    (Opcheck.violations fn report)

let suite =
  let tc = Alcotest.test_case in
  ( "combine",
    [ tc "names" `Quick test_names;
      tc "classification" `Quick test_classification;
      tc "result extent" `Quick test_result_extent;
      tc "parallelisable" `Quick test_parallelisable;
      tc "builtin flags" `Quick test_builtin_flags;
      tc "operator bodies" `Quick test_operator_bodies;
      tc "combine cc" `Quick test_combine_cc;
      tc "combine pw" `Quick test_combine_pw;
      tc "pw requires collapsed" `Quick test_combine_pw_requires_collapsed;
      tc "combine ps" `Quick test_combine_ps;
      tc "combine ps 2d" `Quick test_combine_ps_2d;
      tc "catalogue ops verified" `Quick test_catalogue_ops_verified;
      tc "prl_best verified" `Quick test_prl_best_verified;
      QCheck_alcotest.to_alcotest prop_pw_split;
      QCheck_alcotest.to_alcotest prop_ps_split;
      QCheck_alcotest.to_alcotest prop_cc_assoc;
      QCheck_alcotest.to_alcotest prop_builtin_ops_associative;
      QCheck_alcotest.to_alcotest prop_identity_laws ] )
