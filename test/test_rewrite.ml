(* The verified equality-saturation pass (mdhc optimize).

   Correctness is pinned the way PR 5/6 pinned the executor: rewritten
   computations and plans must be bit-identical to Semantics.exec across
   the whole catalogue under pinned-random legal schedules, on the
   interpreter walker; on the specializer backend the rewritten plan must
   reproduce the raw plan's bits exactly (that backend accumulates in
   double, so Semantics.exec is its tolerance baseline, not its bitwise
   one). The justification discipline is pinned negatively: no
   algebra-gated rule may fire on an operator whose Opcheck report lacks
   the property — the falsely-commutative "first" fixture is the witness
   — nor on a declared-but-unverified annotation, nor on an inexact float
   domain (builtin min/max excepted). *)

module W = Mdh_workloads.Workload
module Catalog = Mdh_workloads.Catalog
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Scalar = Mdh_tensor.Scalar
module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module D = Mdh_directive.Directive
module Transform = Mdh_directive.Transform
module Schedule = Mdh_lowering.Schedule
module Lower = Mdh_lowering.Lower
module Plan = Mdh_lowering.Plan
module Cost = Mdh_lowering.Cost
module Device = Mdh_machine.Device
module Rewrite = Mdh_rewrite.Rewrite
module Opcheck = Mdh_analysis.Opcheck
module Opcheck_oracle = Mdh_analysis.Opcheck_oracle
module Json_in = Mdh_support.Json_in
module Rng = Mdh_support.Rng
open Mdh_runtime

let check = Alcotest.check
let with_pool f = Pool.with_pool ~num_domains:3 f
let cpu = Device.xeon6140_like
let gpu = Device.a100_like
let oracle () = Opcheck_oracle.oracle ()

let outputs_agree ~bitwise md a b =
  List.for_all
    (fun (o : Md_hom.output) ->
      let da = Buffer.data (Buffer.env_find a o.Md_hom.out_name) in
      let db = Buffer.data (Buffer.env_find b o.Md_hom.out_name) in
      if bitwise then Dense.equal da db
      else Dense.approx_equal ~rel:1e-4 ~abs:1e-5 da db)
    md.Md_hom.outputs

let optimize_exn ?(dev = cpu) md sched =
  match Rewrite.optimize ~oracle:(oracle ()) md dev Cost.tuned_codegen sched with
  | Ok r -> r
  | Error e -> Alcotest.failf "optimize: %s" e

(* --- rewritten plans are bit-identical to Semantics.exec (interpreter) --- *)

let test_catalogue_rewritten_bitwise_interp () =
  (* every catalogue workload: (a) the saturated computation evaluates to
     Semantics.exec's exact bits under the sequential semantics — CSE
     evaluates hoisted subexpressions once, identities never round; and
     (b) under pinned-random legal schedules the saturated (computation,
     plan) pair through the generic walker reproduces the raw pair's bits
     exactly — the rewrite is invisible to the backend. (A parallel
     schedule regroups float partials, so bitwise against the sequential
     semantics is the raw walker's own contract only where it holds; the
     rewrite must never move the result a single bit further.) *)
  let rng = Rng.create 20261 in
  with_pool (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          let env = w.W.gen w.W.test_params ~seed:23 in
          let expected = Semantics.exec md env in
          let r_seq = optimize_exn md (Schedule.sequential md) in
          check Alcotest.bool (w.W.wl_name ^ ": saturated semantics bitwise")
            true
            (outputs_agree ~bitwise:true md
               (Semantics.exec r_seq.Rewrite.r_md env)
               expected);
          let tried = ref 0 and draws = ref 0 in
          while !tried < 2 && !draws < 50 do
            incr draws;
            match Test_plan_exec.random_schedule rng md cpu with
            | None -> ()
            | Some sched ->
              incr tried;
              let r = optimize_exn md sched in
              let walk plan pmd =
                match
                  Exec.run_with_plan ~fastpath:false ~specialize:false pool
                    plan pmd env
                with
                | Ok e -> e
                | Error e -> Alcotest.failf "%s: walker: %s" w.W.wl_name e
              in
              let raw = walk r.Rewrite.r_raw_plan md in
              let got = walk r.Rewrite.r_plan r.Rewrite.r_md in
              check Alcotest.bool
                (Printf.sprintf "%s under %s: rewritten==raw bits" w.W.wl_name
                   (Schedule.to_string sched))
                true
                (outputs_agree ~bitwise:true md got raw);
              check Alcotest.bool
                (Printf.sprintf "%s under %s: rewritten~=semantics" w.W.wl_name
                   (Schedule.to_string sched))
                true
                (outputs_agree ~bitwise:false md got expected)
          done;
          check Alcotest.bool (w.W.wl_name ^ ": legal draws found") true
            (!tried > 0))
        Catalog.all)

(* --- ... and on the specializer backend --- *)

let test_catalogue_rewritten_specializer () =
  (* where the specializer accepts the plan, the rewritten plan must
     compute exactly the raw plan's bits (the rewrite is invisible to the
     backend's numerics) and stay tolerance-equal to Semantics.exec (the
     backend accumulates in double, so bitwise against the interpreter is
     not its contract — see test_specializer) *)
  let rng = Rng.create 20262 in
  with_pool (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          let env = w.W.gen w.W.test_params ~seed:23 in
          let expected = Semantics.exec md env in
          let tried = ref 0 and draws = ref 0 in
          while !tried < 2 && !draws < 50 do
            incr draws;
            match Test_plan_exec.random_schedule rng md cpu with
            | None -> ()
            | Some sched -> (
              let raw_plan =
                match Plan.build md cpu sched with
                | Ok p -> p
                | Error e -> Alcotest.failf "plan build: %s" e
              in
              match Specializer.try_run pool raw_plan md env with
              | None -> () (* backend refuses this workload; covered above *)
              | Some raw ->
                incr tried;
                let r = optimize_exn md sched in
                (match
                   Specializer.try_run pool r.Rewrite.r_plan r.Rewrite.r_md env
                 with
                | None ->
                  Alcotest.failf "%s: specializer refused the rewritten plan"
                    w.W.wl_name
                | Some got ->
                  check Alcotest.bool
                    (Printf.sprintf "%s rewritten==raw bits" w.W.wl_name)
                    true
                    (outputs_agree ~bitwise:true md got raw);
                  check Alcotest.bool
                    (Printf.sprintf "%s rewritten~=semantics" w.W.wl_name)
                    true
                    (outputs_agree ~bitwise:false md got expected)))
          done)
        Catalog.all)

(* --- >=3 catalogue workloads with a justified cost-model win --- *)

let test_cost_improvement_on_three_workloads () =
  (* the acceptance pin: PRL (paper input, cpu), KMeans (paper input,
     gpu) and Gaussian_2D (test sizes, cpu) each report at least one
     justified rewrite together with a strict cost-model improvement *)
  let case name dev params =
    let w =
      match Catalog.find name with
      | Some w -> w
      | None -> Alcotest.failf "no workload %s" name
    in
    let md = W.to_md_hom w params in
    let r = optimize_exn ~dev md (Lower.mdh_default md dev) in
    check Alcotest.bool (name ^ ": >=1 rewrite applied") true
      (List.length r.Rewrite.r_applied >= 1);
    List.iter
      (fun (a : Rewrite.applied) ->
        check Alcotest.bool (name ^ ": rule is justified") true
          (String.length (Rewrite.justification_to_string a.Rewrite.ap_just) > 0))
      r.Rewrite.r_applied;
    check Alcotest.bool
      (Printf.sprintf "%s: model improved (%.3e -> %.3e)" name
         r.Rewrite.r_raw_seconds r.Rewrite.r_seconds)
      true
      (r.Rewrite.r_seconds < r.Rewrite.r_raw_seconds)
  in
  let paper w n =
    match Catalog.find w with
    | Some w -> List.assoc n w.W.paper_inputs
    | None -> Alcotest.failf "no workload %s" w
  in
  case "prl" cpu (paper "prl" "1");
  case "kmeans" gpu (paper "kmeans" "1");
  case "gaussian_2d" cpu
    (match Catalog.find "gaussian_2d" with
    | Some w -> w.W.test_params
    | None -> Alcotest.fail "no gaussian_2d")

(* --- no algebra-gated rule without a supporting Opcheck report --- *)

(* a single parallel reduction over int32 under one cpu layer: the plan
   carries a Tree_reduce with one cooperating item per reduction index,
   and the 54-element extent is not a power of two, so tree-balance fires
   whenever its justification gate opens *)
let reduce_md fn =
  Transform.to_md_hom_exn
    (D.make ~name:"reduce_fixture"
       ~out:[ D.buffer "r" Scalar.Int32 ]
       ~inp:[ D.buffer "x" Scalar.Int32 ]
       ~combine_ops:[ Combine.pw fn ]
       (D.for_ "k" 54
          (D.body [ D.assign "r" [ Expr.int 0 ] (Expr.read "x" [ Expr.idx "k" ]) ])))

let reduce_plan md =
  let sched =
    { (Lower.mdh_default md cpu) with
      Schedule.parallel_dims = [ 0 ];
      used_layers = [ 0 ] }
  in
  match Plan.build md cpu sched with
  | Ok p -> p
  | Error e -> Alcotest.failf "reduce plan: %s" e

let tree_balance_fired applied =
  List.exists (fun (a : Rewrite.applied) -> a.Rewrite.ap_rule = "tree-balance") applied

let saturate_plan_with oracle md plan =
  snd (Rewrite.saturate_plan ~oracle md cpu Cost.tuned_codegen plan)

(* "first" is associative but NOT commutative: (a . b) . c = a . (b . c) = a *)
let first_fn ~commutative =
  Combine.custom ~name:"first" ~associative:true ~commutative (fun a _ -> a)

let test_no_reassociation_without_report () =
  let honest = first_fn ~commutative:false in
  let md = reduce_md honest in
  let plan = reduce_plan md in
  (* precondition: the fixture plan really offers a rebalanceable tree *)
  (match Plan.tree plan with
  | Some (_, _, items) ->
    check Alcotest.bool "fixture tree items non-power-of-two" true
      (items > 1 && items land (items - 1) <> 0)
  | None -> Alcotest.fail "fixture plan has no Tree_reduce level");
  (* positive control: with a verifying oracle and an honest declaration
     the rule fires, so the negative cases below have teeth *)
  check Alcotest.bool "honest op: tree-balance fires" true
    (tree_balance_fired (saturate_plan_with (oracle ()) md plan));
  (* the falsely-commutative witness: associativity itself is Proved, but
     the refuted commutativity declaration poisons the operator *)
  let lying = first_fn ~commutative:true in
  let md_lying = reduce_md lying in
  check Alcotest.bool "falsely-commutative op: no algebra rule fires" false
    (tree_balance_fired
       (saturate_plan_with (oracle ()) md_lying (reduce_plan md_lying)));
  (* declared-but-unverified is never a justification: under the pure
     oracle (no Opcheck reports at all) the same honest op must not
     reassociate *)
  check Alcotest.bool "no report, no reassociation" false
    (tree_balance_fired (saturate_plan_with Rewrite.pure_oracle md plan))

let test_float_reassociation_refused () =
  (* fp32 addition: Opcheck proves associativity on the exact sample
     domain, but the domain is inexact so the proof does not transfer —
     the engine must refuse *)
  let fp_md =
    Transform.to_md_hom_exn
      (D.make ~name:"fp_reduce_fixture"
         ~out:[ D.buffer "r" Scalar.Fp32 ]
         ~inp:[ D.buffer "x" Scalar.Fp32 ]
         ~combine_ops:[ Combine.pw (Combine.add Scalar.Fp32) ]
         (D.for_ "k" 54
            (D.body
               [ D.assign "r" [ Expr.int 0 ] (Expr.read "x" [ Expr.idx "k" ]) ])))
  in
  check Alcotest.bool "fp32 add: reassociation refused" false
    (tree_balance_fired (saturate_plan_with (oracle ()) fp_md (reduce_plan fp_md)));
  (* builtin min is selection — it never rounds, so the exemption holds
     even on floats *)
  let min_md =
    Transform.to_md_hom_exn
      (D.make ~name:"fp_min_fixture"
         ~out:[ D.buffer "r" Scalar.Fp32 ]
         ~inp:[ D.buffer "x" Scalar.Fp32 ]
         ~combine_ops:[ Combine.pw (Combine.min Scalar.Fp32) ]
         (D.for_ "k" 54
            (D.body
               [ D.assign "r" [ Expr.int 0 ] (Expr.read "x" [ Expr.idx "k" ]) ])))
  in
  check Alcotest.bool "fp32 min: reassociation allowed" true
    (tree_balance_fired (saturate_plan_with (oracle ()) min_md (reduce_plan min_md)));
  check Alcotest.bool "fp32 is not an exact domain" false
    (Rewrite.exact_scalar_domain Scalar.Fp32);
  check Alcotest.bool "int32 records are an exact domain" true
    (Rewrite.exact_scalar_domain
       (Scalar.Record [ ("a", Scalar.Int32); ("b", Scalar.Int64) ]))

(* --- hardened Opcheck sample domain (satellite) --- *)

let test_opcheck_hardened_samples () =
  let samples = Opcheck.samples Scalar.Fp32 in
  let bits v =
    match v with
    | Scalar.F32 f | Scalar.F64 f -> Some (Int64.bits_of_float f)
    | _ -> None
  in
  let has f =
    List.exists (fun v -> bits v = Some (Int64.bits_of_float f)) samples
  in
  (* both signed zeros, bitwise distinct, and the 2^20 magnitude extremes *)
  check Alcotest.bool "+0.0 sampled" true (has 0.0);
  check Alcotest.bool "-0.0 sampled (bitwise distinct)" true (has (-0.0));
  check Alcotest.bool "+2^20 sampled" true (has 1048576.0);
  check Alcotest.bool "-2^20 sampled" true (has (-1048576.0));
  (* the float add report stays associative on this exact-by-construction
     domain (the caveat the rewrite engine enforces: the proof is
     algebraic, not a statement about rounding on arbitrary floats) *)
  let report = Opcheck.verify ~ty:Scalar.Fp32 (Combine.add Scalar.Fp32) in
  (match report.Opcheck.associativity with
  | Opcheck.Verified n -> check Alcotest.bool "add assoc evaluations" true (n > 0)
  | _ -> Alcotest.fail "fp32 add should verify associative on the exact domain")

(* --- the optimize report: JSON well-formed under Json_in --- *)

let test_optimize_json_wellformed () =
  let w =
    match Catalog.find "prl" with Some w -> w | None -> Alcotest.fail "no prl"
  in
  let md = W.to_md_hom w w.W.test_params in
  let r = optimize_exn md (Lower.mdh_default md cpu) in
  let j = Json_in.parse (Rewrite.report_json ~name:"prl" ~device:"cpu" r) in
  check (Alcotest.option Alcotest.string) "schema" (Some "mdh-optimize/1")
    (Json_in.get_string j "schema");
  check (Alcotest.option Alcotest.string) "workload" (Some "prl")
    (Json_in.get_string j "workload");
  let applied =
    match Json_in.get_list j "applied" with
    | Some l -> l
    | None -> Alcotest.fail "applied missing"
  in
  check (Alcotest.option (Alcotest.float 0.1)) "n_applied"
    (Some (float_of_int (List.length applied)))
    (Json_in.get_float j "n_applied");
  check Alcotest.bool "has rewrites" true (List.length applied > 0);
  List.iter
    (fun a ->
      List.iter
        (fun field ->
          match Json_in.get_string a field with
          | Some s -> check Alcotest.bool (field ^ " non-empty") true (String.length s > 0)
          | None -> Alcotest.failf "applied entry lacks %s" field)
        [ "tier"; "rule"; "site"; "detail"; "kind"; "justification" ])
    applied;
  let num field =
    match Json_in.get_float j field with
    | Some f -> f
    | None -> Alcotest.failf "%s missing" field
  in
  check (Alcotest.float 1e-6) "improvement consistent"
    (1.0 -. (num "model_seconds" /. num "raw_model_seconds"))
    (num "improvement")

(* --- saturation yields a new plan and never worsens the modelled cost --- *)

let test_saturated_digest_never_worsens () =
  let w =
    match Catalog.find "kmeans" with
    | Some w -> w
    | None -> Alcotest.fail "no kmeans"
  in
  let md = W.to_md_hom w w.W.test_params in
  let r = optimize_exn md (Lower.mdh_default md cpu) in
  check Alcotest.bool "saturated digest differs from raw" true
    (Plan.digest r.Rewrite.r_plan <> Plan.digest r.Rewrite.r_raw_plan);
  List.iter
    (fun (w : W.t) ->
      let md = W.to_md_hom w w.W.test_params in
      List.iter
        (fun dev ->
          let r = optimize_exn ~dev md (Lower.mdh_default md dev) in
          check Alcotest.bool (w.W.wl_name ^ ": cost never worsens") true
            (r.Rewrite.r_seconds <= r.Rewrite.r_raw_seconds *. (1.0 +. 1e-9)))
        [ cpu; gpu ])
    Catalog.all

(* --- the opcheck oracle's memo is shared by domains and mdhd threads --- *)

let test_oracle_memo_concurrent () =
  (* every combine operator of the catalogue, at its workload's type *)
  let ops =
    List.sort_uniq compare
      (List.concat_map
         (fun (w : W.t) ->
           let md = W.to_md_hom w w.W.test_params in
           match md.Md_hom.outputs with
           | [] -> []
           | o :: _ ->
             List.filter_map
               (fun op ->
                 Option.map
                   (fun fn -> (Scalar.ty_to_string o.Md_hom.out_ty, o.Md_hom.out_ty, fn))
                   (Combine.custom_fn_of op))
               (Array.to_list md.Md_hom.combine_ops))
         Catalog.all)
  in
  check Alcotest.bool "catalogue has combine operators" true (List.length ops >= 3);
  (* fresh seeds, so the four domains race on cold keys of the memo *)
  let seeds = List.init 40 (fun i -> 7001 + i) in
  let work = List.concat_map (fun seed -> List.map (fun op -> (seed, op)) ops) seeds in
  let reports () =
    List.map (fun (seed, (_, ty, fn)) -> Opcheck_oracle.report ~seed ~ty fn) work
  in
  let domains = List.init 4 (fun _ -> Domain.spawn reports) in
  let parallel = List.map Domain.join domains in
  let sequential = List.map (fun (seed, (_, ty, fn)) -> Opcheck.verify ~seed ~ty fn) work in
  List.iteri
    (fun i got ->
      check Alcotest.bool (Printf.sprintf "domain %d reports = sequential verify" i) true
        (compare got sequential = 0))
    parallel

(* The memo keeps a report only for an operator its key identifies. A
   closure is known by its name alone: after a closure [f] that adds, a
   closure [f] that subtracts, and after the builtin [add], a closure named
   [add] that subtracts, must each get their own verification, which
   refutes the subtraction's associativity as [Opcheck.verify] does. *)
let test_oracle_memo_closures () =
  let seed = 9011 and ty = Scalar.Int32 in
  let assoc fn = (Opcheck_oracle.report ~seed ~ty fn).Opcheck.associativity in
  let verified what fn =
    match assoc fn with
    | Opcheck.Verified _ -> ()
    | _ -> Alcotest.failf "%s: associativity not verified" what
  in
  let refuted what fn =
    (match (Opcheck.verify ~seed ~ty fn).Opcheck.associativity with
    | Opcheck.Counterexample _ -> ()
    | _ -> Alcotest.failf "%s: Opcheck.verify finds no counterexample" what);
    match assoc fn with
    | Opcheck.Counterexample _ -> ()
    | Opcheck.Verified _ -> Alcotest.failf "%s: the oracle reports another operator's Verified" what
    | Opcheck.Untestable m -> Alcotest.failf "%s: untestable (%s)" what m
  in
  verified "closure f = a + b" (Combine.custom ~name:"f" Scalar.add);
  refuted "closure f = a - b, after f = a + b" (Combine.custom ~name:"f" Scalar.sub);
  verified "builtin add" (Combine.add ty);
  refuted "closure add = a - b, after the builtin add" (Combine.custom ~name:"add" Scalar.sub)

let suite =
  ( "rewrite",
    [ Alcotest.test_case "catalogue rewritten bitwise (interp)" `Quick
        test_catalogue_rewritten_bitwise_interp;
      Alcotest.test_case "catalogue rewritten (specializer)" `Quick
        test_catalogue_rewritten_specializer;
      Alcotest.test_case "cost improvement on >=3 workloads" `Quick
        test_cost_improvement_on_three_workloads;
      Alcotest.test_case "no reassociation without report" `Quick
        test_no_reassociation_without_report;
      Alcotest.test_case "float reassociation refused" `Quick
        test_float_reassociation_refused;
      Alcotest.test_case "opcheck hardened samples" `Quick
        test_opcheck_hardened_samples;
      Alcotest.test_case "optimize json wellformed" `Quick
        test_optimize_json_wellformed;
      Alcotest.test_case "saturated digest + never worsens" `Quick
        test_saturated_digest_never_worsens;
      Alcotest.test_case "oracle memo safe across domains" `Quick
        test_oracle_memo_concurrent;
      Alcotest.test_case "oracle memo keeps closures apart" `Quick
        test_oracle_memo_closures ] )
