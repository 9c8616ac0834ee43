(* Differential harness for the plan-compiled specializer and the
   compiled-OpenMP-C backend.

   Both backends are checked against Semantics.exec — the executable
   paper semantics — across the whole catalogue: the specializer under
   pinned-random legal schedules (PRL and KMeans, whose custom operators
   and record types leave nothing to round, exactly, raw, saturated and
   optimized), the compiled C end to end through gcc when a C compiler is
   on PATH (an explicit SKIP line otherwise, never silently). Also
   checked: zero-extent executor semantics, inputs that do
   not match the computation (an error, not an exception), operators that
   share a name (told apart by their bodies and by their declared
   algebra, whatever ran before) and the interp dispatch, which runs the
   reference. Four pins cover the specializer's row steps: hand-built
   directives with the expression forms and operators the catalogue lacks
   (each form a row refuses is named by the refusal and runs on the
   reference, counted as one fallback), product rows (a [read * read]
   folded in one loop) bit-identical to the same product through
   registers, outputs bit-identical across pool sizes, and the allocation
   gate (no minor words per iteration point). *)

module W = Mdh_workloads.Workload
module Catalog = Mdh_workloads.Catalog
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Scalar = Mdh_tensor.Scalar
module Index_fn = Mdh_tensor.Index_fn
module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module D = Mdh_directive.Directive
module Transform = Mdh_directive.Transform
module Schedule = Mdh_lowering.Schedule
module Lower = Mdh_lowering.Lower
module Plan = Mdh_lowering.Plan
module Device = Mdh_machine.Device
module Metrics = Mdh_obs.Metrics
module Cc = Mdh_codegen.Cc
module Openmp_c = Mdh_codegen.Openmp_c
module Rng = Mdh_support.Rng
module Rewrite = Mdh_rewrite.Rewrite
module Cost = Mdh_lowering.Cost
module Opcheck_oracle = Mdh_analysis.Opcheck_oracle
open Mdh_runtime

let check = Alcotest.check
let with_pool f = Pool.with_pool ~num_domains:3 f
let cpu = Device.xeon6140_like

let outputs_agree ?(rel = 1e-4) ?(abs = 1e-5) md a b =
  List.for_all
    (fun (o : Md_hom.output) ->
      let da = Buffer.data (Buffer.env_find a o.Md_hom.out_name) in
      let db = Buffer.data (Buffer.env_find b o.Md_hom.out_name) in
      Dense.approx_equal ~rel ~abs da db)
    md.Md_hom.outputs

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The fast backends read input stores in place: [f ()] must leave every
   input of [md] in [env] as it found it. *)
let inputs_untouched what (md : Md_hom.t) env f =
  let data name = Buffer.data (Buffer.env_find env name) in
  let before =
    List.map (fun (i : Md_hom.input) -> (i.inp_name, Dense.copy (data i.inp_name))) md.inputs
  in
  let result = f () in
  List.iter
    (fun (name, d) ->
      check Alcotest.bool (Printf.sprintf "%s: input %s untouched" what name) true
        (Dense.equal d (data name)))
    before;
  result

let plan_of md sched =
  match Plan.build md cpu sched with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan build: %s" e

(* Every dimension the computation lets run in parallel: its cc
   dimensions distributed, an associative pw dimension tree-reduced. *)
let parallel_schedule md =
  { (Schedule.sequential md) with
    Schedule.parallel_dims = Lower.parallelisable_dims md }

(* Exact value equality on every output but an fp32 one, which is
   tolerance-equal: a row rounds fp32 where the expression casts, not after
   each operation as Semantics.exec does. *)
let matches md a b =
  List.for_all
    (fun (o : Md_hom.output) ->
      let da = Buffer.data (Buffer.env_find a o.Md_hom.out_name) in
      let db = Buffer.data (Buffer.env_find b o.Md_hom.out_name) in
      if Scalar.equal_ty o.Md_hom.out_ty Scalar.Fp32 then
        Dense.approx_equal ~rel:1e-4 ~abs:1e-5 da db
      else Dense.equal da db)
    md.Md_hom.outputs

(* --- the specializer computes the reference result, catalogue-wide --- *)

let test_specializer_matches_reference () =
  (* every workload x pinned-random legal schedules: Specializer.try_run
     agrees with Semantics.exec, within the repository tolerance on fp32
     outputs. PRL and KMeans (records, a custom pw operator, fp64 and
     int32 arithmetic) agree exactly, under the sequential schedule too,
     and so do their saturated and optimized computations. *)
  let rng = Rng.create 20260 in
  with_pool (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          let env = w.W.gen w.W.test_params ~seed:17 in
          let expected = Semantics.exec md env in
          let record_typed =
            List.mem (String.lowercase_ascii w.W.wl_name) [ "prl"; "kmeans" ]
          in
          let run label plan md' =
            match
              inputs_untouched w.W.wl_name md env (fun () ->
                  Specializer.try_run pool plan md' env)
            with
            | None ->
              Alcotest.failf "%s: specializer refused (%s)" label
                (match Specializer.supported plan md' with
                | Error e -> e
                | Ok () -> "buffer binding failed")
            | Some got -> check Alcotest.bool label true (matches md got expected)
          in
          let each sched =
            let label = Printf.sprintf "%s under %s" w.W.wl_name (Schedule.to_string sched) in
            run label (plan_of md sched) md;
            if record_typed then begin
              let sat = fst (Rewrite.saturate_outputs md) in
              run (label ^ ", saturated") (plan_of sat sched) sat;
              match
                Rewrite.optimize ~oracle:(Opcheck_oracle.oracle ()) md cpu
                  Cost.tuned_codegen sched
              with
              | Ok r -> run (label ^ ", optimized") r.Rewrite.r_plan r.Rewrite.r_md
              | Error e -> Alcotest.failf "%s: optimize: %s" label e
            end
          in
          if record_typed then each (Schedule.sequential md);
          let tried = ref 0 and draws = ref 0 in
          while !tried < 3 && !draws < 50 do
            incr draws;
            match Test_plan_exec.random_schedule rng md cpu with
            | None -> ()
            | Some sched ->
              incr tried;
              each sched
          done;
          check Alcotest.bool (w.W.wl_name ^ ": legal draws found") true (!tried > 0))
        Catalog.all)

(* --- interp runs the reference --- *)

let fallbacks = Metrics.counter "runtime.exec.fallbacks"

(* every compile and every run of the Specializer is observed *)
let compiles_and_runs () =
  List.map
    (fun name -> (Metrics.histogram_value (Metrics.histogram name)).Metrics.h_count)
    [ "runtime.specializer.compile_s"; "runtime.specializer.run_s" ]

(* exact value equality on every output buffer *)
let outputs_equal md a b =
  List.for_all
    (fun (o : Md_hom.output) ->
      let data e = Buffer.data (Buffer.env_find e o.Md_hom.out_name) in
      Dense.equal (data a) (data b))
    md.Md_hom.outputs

(* [~specialize:false] is [Semantics.exec] itself, with no
   Specializer compile or run and no fallback counted; the default
   dispatch serves every catalogue computation without a fallback *)
let test_interp_runs_reference () =
  with_pool (fun pool ->
      let f0 = Metrics.value fallbacks in
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          let env = w.W.gen w.W.test_params ~seed:23 in
          let sched = parallel_schedule md in
          let before = compiles_and_runs () in
          (match Exec.run ~specialize:false pool md sched env with
          | Error e -> Alcotest.fail e
          | Ok got ->
            check Alcotest.bool (w.W.wl_name ^ ": interp = Semantics.exec") true
              (outputs_equal md got (Semantics.exec md env)));
          check Alcotest.(list int) (w.W.wl_name ^ ": no specializer compile or run")
            before (compiles_and_runs ());
          match Exec.run pool md sched env with
          | Error e -> Alcotest.fail e
          | Ok _ -> ())
        Catalog.all;
      check Alcotest.int "no fallback counted" f0 (Metrics.value fallbacks))

(* --- zero-extent iteration spaces: parallel = sequential = defined --- *)

let zero_extent_md =
  (* built directly: the directive front end has no reason to admit a
     zero-trip loop, but a tuner sweeping problem sizes can produce one,
     and the executor used to hand back never-written output buffers
     from the parallel path (zero jobs scheduled) *)
  {
    Md_hom.hom_name = "ZeroExtent";
    dims = [| "k" |];
    sizes = [| 0 |];
    combine_ops = [| Combine.pw (Combine.add Scalar.Fp32) |];
    inputs =
      [ { Md_hom.inp_name = "x";
          inp_ty = Scalar.Fp32;
          inp_shape = [| 4 |];
          accesses =
            [ { Md_hom.fn = Index_fn.identity 1; exprs = [ Expr.idx "k" ] } ] } ];
    outputs =
      [ { Md_hom.out_name = "r";
          out_ty = Scalar.Fp32;
          out_shape = [| 1 |];
          out_access =
            { Md_hom.fn =
                Index_fn.affine ~arity:1
                  [ Index_fn.coord ~coeffs:[| 0 |] ~offset:0 ];
              exprs = [ Expr.int 0 ] };
          value = Expr.(read "x" [ idx "k" ]) } ];
  }

let test_zero_extent_runs () =
  with_pool (fun pool ->
      let md = zero_extent_md in
      let rng = Rng.create 3 in
      let env = Buffer.env_of_list [ W.float_buffer "x" rng [| 4 |] ] in
      let seq = Exec.run_seq md env in
      let sched =
        { (Schedule.sequential md) with
          Schedule.parallel_dims = [ 0 ];
          Schedule.used_layers = [ 0 ] }
      in
      match Exec.run pool md sched env with
      | Error e -> Alcotest.failf "zero-extent run failed: %s" e
      | Ok got ->
        let out = Buffer.data (Buffer.env_find got "r") in
        check (Alcotest.float 0.0) "empty sum is the identity" 0.0
          (Scalar.to_float (Dense.get_linear out 0));
        check Alcotest.bool "parallel = sequential on zero extents" true
          (Dense.equal out (Buffer.data (Buffer.env_find seq "r"))))

(* --- inputs that do not match the computation are an error --- *)

(* prl with its first record input's elements lacking every field it
   declares, and dot with its first input missing: [Exec.run] and
   [Exec.run_with_plan] each return an [Error] naming the buffer, by the
   default dispatch (which asks the reference once the fast backends
   decline) and by the reference itself, and so does the zero-extent
   short-circuit. None raises, and none counts a fallback. *)
let test_mismatched_inputs_error () =
  let case name =
    let w = Option.get (Catalog.find name) in
    let md = W.to_md_hom w w.W.test_params in
    (md, w.W.gen w.W.test_params ~seed:17, List.hd md.Md_hom.inputs)
  in
  let prl_md, prl_env, newp = case "prl" in
  let prl_env =
    Buffer.env_add prl_env
      (Buffer.of_dense newp.Md_hom.inp_name
         (Dense.of_fn newp.inp_ty newp.inp_shape (fun _ -> Scalar.R [ ("other", Scalar.i32 0) ])))
  in
  let dot_md, dot_env, x = case "dot" in
  let dot_env =
    Buffer.env_of_list
      (List.filter_map
         (fun n -> if n = x.inp_name then None else Some (Buffer.env_find dot_env n))
         (Buffer.env_names dot_env))
  in
  let zero_env = Buffer.env_of_list [] in
  with_pool (fun pool ->
      let f0 = Metrics.value fallbacks in
      List.iter
        (fun ((md : Md_hom.t), env, buf, reason) ->
          let sched = parallel_schedule md in
          let expect what r =
            match r with
            | Ok _ -> Alcotest.failf "%s: %s ran on mismatched inputs" md.hom_name what
            | Error e ->
              if not (contains e buf && contains e reason) then
                Alcotest.failf "%s: %s: error %S does not name %s (%s)" md.hom_name what e buf
                  reason
          in
          expect "run" (Exec.run ~device:cpu pool md sched env);
          expect "interp run" (Exec.run ~device:cpu ~specialize:false pool md sched env);
          expect "run_with_plan" (Exec.run_with_plan pool (Plan.sequential md) md env))
        [ (prl_md, prl_env, newp.inp_name, "holds an element not of type");
          (dot_md, dot_env, x.inp_name, "not supplied");
          (zero_extent_md, zero_env, "x", "not supplied") ];
      check Alcotest.int "no fallback counted" f0 (Metrics.value fallbacks))

(* --- generated C: reduction temporaries start at the operator identity --- *)

let reduction_md name op =
  Transform.to_md_hom_exn
    (D.make ~name
       ~out:[ D.buffer "r" Scalar.Fp32 ]
       ~inp:[ D.buffer "x" Scalar.Fp32 ]
       ~combine_ops:[ Combine.pw op ]
       (D.for_ "k" 11
          (D.body [ D.assign "r" [ Expr.int 0 ] Expr.(read "x" [ idx "k" ]) ])))

let test_openmp_identity_init () =
  (* the miscompile this PR pins: every reduction temporary was seeded
     with 0, which absorbs a mul reduction and clamps max at zero *)
  let pin name op needle =
    match Openmp_c.generate (reduction_md name op) with
    | Error e ->
      Alcotest.failf "%s: %a" name Mdh_codegen.Kernel.pp_error e
    | Ok src ->
      check Alcotest.bool (name ^ " initialises with " ^ needle) true
        (contains src ("sum = " ^ needle ^ ";"))
  in
  pin "MaxReduce" (Combine.max Scalar.Fp32) "-INFINITY";
  pin "MulReduce" (Combine.mul Scalar.Fp32) "1";
  pin "AddReduce" (Combine.add Scalar.Fp32) "0";
  (* and end to end through gcc, where the wrong identity is observable *)
  if Cc.available () then
    List.iter
      (fun (name, op) ->
        let md = reduction_md name op in
        let rng = Rng.create 12 in
        let env = Buffer.env_of_list [ W.float_buffer "x" rng [| 11 |] ] in
        match Cc.execute md env with
        | Error e -> Alcotest.failf "%s: %s" name e
        | Ok got ->
          check Alcotest.bool (name ^ " compiled C correct") true
            (outputs_agree ~rel:1e-3 ~abs:1e-4 md got (Semantics.exec md env)))
      [ ("MaxReduce", Combine.max Scalar.Fp32);
        ("MulReduce", Combine.mul Scalar.Fp32);
        ("AddReduce", Combine.add Scalar.Fp32) ]
  else print_endline "test_specializer: SKIP compiled-C identity check (no gcc)"

(* --- compiled C = reference, catalogue-wide (gcc-gated) --- *)

(* what the Listing 2 C shape can express standalone: one output, at most
   one reduction loop, builtin operators, fp32 buffers throughout *)
let cc_expressible (md : Md_hom.t) =
  List.length md.Md_hom.outputs = 1
  && List.length (Md_hom.reduction_dims md) <= 1
  && Array.for_all
       (fun op ->
         match Combine.custom_fn_of op with
         | Some fn -> fn.Combine.builtin
         | None -> true)
       md.Md_hom.combine_ops
  && List.for_all
       (fun (i : Md_hom.input) -> Scalar.equal_ty i.inp_ty Scalar.Fp32)
       md.Md_hom.inputs
  && List.for_all
       (fun (o : Md_hom.output) -> Scalar.equal_ty o.out_ty Scalar.Fp32)
       md.Md_hom.outputs

let test_cc_matches_reference () =
  if not (Cc.available ()) then
    print_endline "test_specializer: SKIP compiled-C differential (no gcc)"
  else
    List.iter
      (fun (w : W.t) ->
        let md = W.to_md_hom w w.W.test_params in
        let env = w.W.gen w.W.test_params ~seed:29 in
        match Cc.execute md env with
        | Error e ->
          if cc_expressible md then
            Alcotest.failf "%s: compiled C refused an expressible computation: %s"
              w.W.wl_name e
        | Ok got ->
          check Alcotest.bool (w.W.wl_name ^ " expected expressible") true
            (cc_expressible md);
          (* the kernel accumulates in C float with OpenMP reassociation:
             looser tolerance than the double-accumulating specializer *)
          check Alcotest.bool (w.W.wl_name ^ " compiled C = reference") true
            (outputs_agree ~rel:1e-3 ~abs:1e-4 md got (Semantics.exec md env)))
      Catalog.all

(* --- the forms the catalogue does not exercise --- *)

(* A directive with output [r] of type [out]: [loops] outermost first, one
   combine operator per loop, every input declared with its type and shape
   (non-affine accesses leave nothing to infer one from). *)
let typed ~name ~ops ~loops ~inp ~out ~out_idx value =
  let nest =
    List.fold_right
      (fun (v, n) body -> D.for_ v n body)
      loops
      (D.body [ D.assign "r" out_idx value ])
  in
  Transform.to_md_hom_exn
    (D.make ~name
       ~out:[ D.buffer "r" out ]
       ~inp:(List.map (fun (n, ty, shape) -> D.buffer ~shape n ty) inp)
       ~combine_ops:ops nest)

(* The same over fp32 buffers. *)
let hand_built ~name ~ops ~loops ~inp ~out_idx value =
  typed ~name ~ops ~loops
    ~inp:(List.map (fun (n, shape) -> (n, Scalar.Fp32, shape)) inp)
    ~out:Scalar.Fp32 ~out_idx value

let rec random_value rng = function
  | Scalar.Fp64 -> Scalar.F64 (Rng.float rng 2.0 -. 1.0)
  | Scalar.Int32 -> Scalar.i32 (Rng.int_in rng (-1000) 1000)
  | Scalar.Int64 -> Scalar.i64 (Rng.int_in rng (-1000) 1000)
  | Scalar.Record fields ->
    Scalar.R (List.map (fun (f, ty) -> (f, random_value rng ty)) fields)
  | ty -> Alcotest.failf "no random %s values" (Scalar.ty_to_string ty)

let env_for seed (md : Md_hom.t) =
  let rng = Rng.create seed in
  Buffer.env_of_list
    (List.map
       (fun (i : Md_hom.input) ->
         match i.Md_hom.inp_ty with
         | Scalar.Fp32 -> W.float_buffer i.Md_hom.inp_name rng i.inp_shape
         | ty ->
           Buffer.of_dense i.Md_hom.inp_name
             (Dense.of_fn ty i.inp_shape (fun _ -> random_value rng ty)))
       md.Md_hom.inputs)

let neg e = Expr.Unop (Expr.Neg, e)
let not_ e = Expr.Unop (Expr.Not, e)
let emin a b = Expr.Binop (Expr.Min, a, b)
let emax a b = Expr.Binop (Expr.Max, a, b)

let i_ = Expr.idx "i"
let j_ = Expr.idx "j"
let k_ = Expr.idx "k"
let lhs = Expr.var "lhs"
let rhs = Expr.var "rhs"

let fold_ops =
  [ ("Add", Combine.add Scalar.Fp32); ("Mul", Combine.mul Scalar.Fp32);
    ("Min", Combine.min Scalar.Fp32); ("Max", Combine.max Scalar.Fp32) ]

(* A one-dimensional pw reduction with [op] over [k] points; the value
   stays near 1 so that a product of thousands of them neither overflows
   nor underflows. *)
let pw_reduction (opname, op) k =
  hand_built ~name:("SpecPw" ^ opname) ~ops:[ Combine.pw op ] ~loops:[ ("k", k) ]
    ~inp:[ ("x", [| k |]); ("y", [| k |]) ] ~out_idx:[ Expr.int 0 ]
    Expr.(f32 1.0 + (read "x" [ k_ ] * read "y" [ k_ ] * f32 0.001))

let let_leaf () =
  Expr.(
    let_ "j" (k_ + int 1)
      (if_ (var "j" > int 250) (read "y" [ var "j" - int 1 ]) (f32 0.5)))

(* A value that binds the boolean [cond] (over the float read [a] and the
   integer [j]) and selects with it. *)
let bool_case name cond n =
  hand_built ~name ~ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
    ~loops:[ ("i", 6); ("k", n) ] ~inp:[ ("x", [| 6; n |]); ("y", [| n |]) ]
    ~out_idx:[ i_ ]
    Expr.(
      let_ "a" (read "x" [ i_; k_ ])
        (let_ "j" (k_ + int 1)
           (let_ "c" cond
              (var "a" * if_ (var "c") (read "y" [ var "j" - int 1 ]) (neg (read "y" [ k_ ]))))))

(* The selection of the greater [v], then the lower [id]: a total order,
   so associative and commutative. *)
let scored_ty = Scalar.Record [ ("v", Scalar.Fp64); ("id", Scalar.Int64) ]

let sel_max =
  let v e = Expr.field e "v" and id e = Expr.field e "id" in
  Combine.of_body ~name:"sel_max" ~ty:scored_ty ~commutative:true
    Expr.(if_ (v lhs > v rhs || (v lhs = v rhs && id lhs <= id rhs)) lhs rhs)

(* The same over (up, down) pairs of int32s. *)
let pair_ty = Scalar.Record [ ("up", Scalar.Int32); ("down", Scalar.Int32) ]

let pair_max =
  let up e = Expr.field e "up" and down e = Expr.field e "down" in
  Combine.of_body ~name:"pair_max" ~ty:pair_ty ~commutative:true
    Expr.(if_ (up lhs > up rhs || (up lhs = up rhs && down lhs >= down rhs)) lhs rhs)

(* [lhs * 0.5 + rhs]: a left fold weighs its last points most, so any
   other order or grouping of a cell's points changes its bits. *)
let halve_then_add =
  Combine.of_body ~name:"halve_then_add" ~ty:Scalar.Fp64 ~associative:false
    ~commutative:false
    Expr.((lhs * f64 0.5) + rhs)

let ints_ty = Scalar.Record [ ("a", Scalar.Int32); ("b", Scalar.Int32) ]
let mixed_ty = Scalar.Record [ ("a", Scalar.Int32); ("w", Scalar.Fp64) ]

(* Every form a row compiles, as a function of the row length [n]. A
   record output is reduced along [n], so that its size, whose packing
   allocates per element, does not grow with it. *)
let row_cases =
  let cc = Combine.cc in
  let add = Combine.pw (Combine.add Scalar.Fp32) in
  [ (* a float Let held in a register and used twice; an affine integer
       Let substituted into a read and converted to float; a float
       negation; a float Let whose body is an integer *)
    (fun n ->
      hand_built ~name:"SpecLets" ~ops:[ cc; add ] ~loops:[ ("i", 6); ("k", n) ]
        ~inp:[ ("x", [| 6; n |]); ("y", [| n |]) ] ~out_idx:[ i_ ]
        Expr.(
          let_ "a" (read "x" [ i_; k_ ])
            (let_ "j" (k_ + int 1)
               ((var "a" * read "y" [ var "j" - int 1 ])
               + neg (var "a")
               + cast Scalar.Fp32 (var "j")
               + cast Scalar.Fp32 (let_ "b" (read "x" [ i_; k_ ]) k_)))));
    (* an fp32 cast, an integer converted to float, a negated index (a row
       that runs backwards), float Sub, Div, Min and Max *)
    (fun n ->
      let last = Expr.int (n - 1) in
      hand_built ~name:"SpecCasts" ~ops:[ cc; cc ] ~loops:[ ("i", 5); ("k", n) ]
        ~inp:[ ("x", [| 5; n |]) ] ~out_idx:[ i_; k_ ]
        Expr.(
          cast Scalar.Fp32 (read "x" [ i_; k_ ] * f32 3.0)
          + cast Scalar.Fp32 (k_ - i_)
          - read "x" [ i_; last + neg k_ ]
          + (emin (read "x" [ i_; k_ ]) (f32 0.25) / emax (read "x" [ i_; k_ ]) (f32 0.5))));
    (* ps over the innermost dimension: the row runs along the scan *)
    (fun n ->
      hand_built ~name:"SpecScanInner" ~ops:[ cc; Combine.ps (Combine.add Scalar.Fp32) ]
        ~loops:[ ("i", 4); ("j", n) ] ~inp:[ ("x", [| 4; n |]) ] ~out_idx:[ i_; j_ ]
        Expr.(read "x" [ i_; j_ ]));
    (* comparisons feeding selects: of fp32 reads, the whole value; of an
       affine integer, under an integer Let (the shape CSE gives [if k+1 >
       250 then y[k] else 0.5]), the whole value and an operand of a float
       [+]; every read under a branch in range *)
    (fun n ->
      hand_built ~name:"SpecRootIf" ~ops:[ add ] ~loops:[ ("k", n) ]
        ~inp:[ ("x", [| n |]); ("y", [| n |]) ] ~out_idx:[ Expr.int 0 ]
        Expr.(
          if_ (read "x" [ k_ ] > read "y" [ k_ ]) (read "x" [ k_ ])
            (read "y" [ k_ ] * f32 0.5)));
    (fun n ->
      hand_built ~name:"SpecLetLeafRoot" ~ops:[ add ] ~loops:[ ("k", n) ]
        ~inp:[ ("y", [| n |]) ] ~out_idx:[ Expr.int 0 ] (let_leaf ()));
    (fun n ->
      hand_built ~name:"SpecLetLeafOperand" ~ops:[ cc ] ~loops:[ ("k", n) ]
        ~inp:[ ("x", [| n |]); ("y", [| n |]) ] ~out_idx:[ k_ ]
        Expr.(read "x" [ k_ ] + let_leaf ()));
    (* booleans: a comparison of a float read and of integers, bound by a
       Let, combined with And, Or and Not *)
    bool_case "SpecCompare" Expr.(var "a" >= f32 0.0);
    bool_case "SpecOr" Expr.((var "a" >= f32 0.0 && not_ (var "j" > int 250)) || i_ = int 2);
    bool_case "SpecAnd" Expr.(i_ <> k_ && k_ <= int 3);
    bool_case "SpecNot" (not_ Expr.(var "j" > int 250));
    (* fp64 arithmetic, exact: Add, Sub, Mul, Div, Min, Max, negation, an
       integer converted to fp64, an int32 that wraps widened to int64, and
       an fp64 cast to fp32 and back *)
    (fun n ->
      typed ~name:"SpecFp64" ~ops:[ cc; cc ] ~loops:[ ("i", 4); ("k", n) ]
        ~inp:[ ("x", Scalar.Fp64, [| 4; n |]) ] ~out:Scalar.Fp64 ~out_idx:[ i_; k_ ]
        Expr.(
          let_ "v" (read "x" [ i_; k_ ])
            ((var "v" * var "v") - (f64 0.5 / var "v")
            + emin (var "v") (f64 0.25) + emax (neg (var "v")) (f64 (-0.5))
            + cast Scalar.Fp64 (k_ - (int 2 * i_))
            + cast Scalar.Fp64 (cast Scalar.Int64 (k_ + int 2147483600))
            + cast Scalar.Fp64 (cast Scalar.Fp32 (var "v")))));
    (* an int32 ramp that wraps to zero from below (-2^32 at k = 4) is +0,
       as Semantics.exec's Int32 arithmetic makes it, so 1 / it is +inf *)
    (fun n ->
      typed ~name:"SpecWrapZero" ~ops:[ cc ] ~loops:[ ("k", n) ]
        ~inp:[ ("x", Scalar.Fp64, [| n |]) ] ~out:Scalar.Fp64 ~out_idx:[ k_ ]
        Expr.(read "x" [ k_ ] + (f64 1.0 / cast Scalar.Fp64 (neg (k_ * int 1073741824)))));
    (* a record input read whole into a Let and by field, a record built
       with MkRecord, folded by a custom operator along a pw row (the
       sequential schedule's row runs along k, into one cell; one that
       distributes i runs it across the cells) *)
    (fun n ->
      typed ~name:"SpecRecordPwRow" ~ops:[ cc; Combine.pw sel_max ]
        ~loops:[ ("i", 4); ("k", n) ] ~inp:[ ("p", mixed_ty, [| 4; n |]) ] ~out:scored_ty
        ~out_idx:[ i_ ]
        Expr.(
          let_ "q" (read "p" [ i_; k_ ])
            (MkRecord
               [ ("v", (field (var "q") "w" * f64 2.0) + cast Scalar.Fp64 (field (var "q") "a"));
                 ("id", cast Scalar.Int64 k_) ])));
    (* the same operator along a cc row: the pw dimension is outermost, so
       each lane folds into its own cell *)
    (fun n ->
      typed ~name:"SpecRecordCcRow" ~ops:[ Combine.pw sel_max; cc ]
        ~loops:[ ("k", n); ("i", 23) ] ~inp:[ ("x", Scalar.Fp64, [| n; 23 |]) ]
        ~out:scored_ty ~out_idx:[ i_ ]
        (Expr.MkRecord
           [ ("v", Expr.read "x" [ k_; i_ ]);
             ("id", Expr.(cast Scalar.Int64 ((k_ * int 23) + i_))) ]));
    (* the same operator with no cc dimension: the parallel schedule
       tree-reduces [k] with no Distribute level over it, so on a pool with
       workers each job folds its part of the row into a private cell and
       the partials combine through the body *)
    (fun n ->
      typed ~name:"SpecRecordOneCell" ~ops:[ Combine.pw sel_max ] ~loops:[ ("k", n) ]
        ~inp:[ ("x", Scalar.Fp64, [| n |]) ] ~out:scored_ty ~out_idx:[ Expr.int 0 ]
        (Expr.MkRecord
           [ ("v", Expr.read "x" [ k_ ]); ("id", Expr.(cast Scalar.Int64 k_)) ]));
    (* int32 data: Add and Sub that wrap at +-2^31, Min, Max and negation,
       and an affine int32 that wraps, selected by a custom operator over
       int32 fields *)
    (fun n ->
      typed ~name:"SpecInt32Wrap" ~ops:[ cc; Combine.pw pair_max ]
        ~loops:[ ("i", 3); ("k", n) ] ~inp:[ ("p", ints_ty, [| 3; n |]) ] ~out:pair_ty
        ~out_idx:[ i_ ]
        Expr.(
          let_ "q" (read "p" [ i_; k_ ])
            (MkRecord
               [ ( "up",
                   emax (field (var "q") "a" + int 2147483500) (k_ + int 2147483500) );
                 ( "down",
                   neg (emin (field (var "q") "a") (field (var "q") "b"))
                   - int 2147483000 - int 1000 ) ])));
    (* an order-sensitive fold, neither associative nor commutative, over
       two cc dimensions and a pw one: exact only if every cell folds its
       points in the order Semantics.exec does. A schedule that
       distributes [i] runs the row across the cells, along [i], one
       segment per [j] (or per part of one, where a job's chunk ends);
       the others along [k] *)
    (fun n ->
      typed ~name:"SpecFoldOrder" ~ops:[ cc; cc; Combine.pw halve_then_add ]
        ~loops:[ ("j", 3); ("i", 5); ("k", n) ] ~inp:[ ("x", Scalar.Fp64, [| 3; 5; n |]) ]
        ~out:Scalar.Fp64 ~out_idx:[ j_; i_ ] (Expr.read "x" [ j_; i_; k_ ]));
    (* the same with no cc dimension: one cell, so the row folds lane by
       lane under every schedule *)
    (fun n ->
      typed ~name:"SpecFoldOrderOneCell" ~ops:[ Combine.pw halve_then_add ]
        ~loops:[ ("k", n) ] ~inp:[ ("x", Scalar.Fp64, [| n |]) ] ~out:Scalar.Fp64
        ~out_idx:[ Expr.int 0 ] (Expr.read "x" [ k_ ])) ]
  (* pw mul, min and max: along the row, and across rows into a strided
     accumulator (the pw dimension outermost) *)
  @ List.concat_map
      (fun ((opname, op) as fop) ->
        if opname = "Add" then []
        else
          [ pw_reduction fop;
            (fun n ->
              hand_built ~name:("SpecPwOuter" ^ opname) ~ops:[ Combine.pw op; cc ]
                ~loops:[ ("k", 23); ("i", n) ] ~inp:[ ("x", [| 23; n |]) ] ~out_idx:[ i_ ]
                Expr.(f32 1.0 + (read "x" [ k_; i_ ] * f32 0.01))) ])
      fold_ops
  (* ps over a dimension that is not innermost, with every operator *)
  @ List.map
      (fun (opname, op) n ->
        hand_built ~name:("SpecScanMid" ^ opname) ~ops:[ cc; Combine.ps op; cc ]
          ~loops:[ ("i", 3); ("j", 5); ("k", n) ] ~inp:[ ("x", [| 3; 5; n |]) ]
          ~out_idx:[ i_; j_; k_ ]
          Expr.(read "x" [ i_; j_; k_ ] + f32 0.5))
      fold_ops

(* The forms a row refuses, each with the words its refusal names. *)
let refused_cases () =
  let add = Combine.pw (Combine.add Scalar.Fp32) in
  [ ( hand_built ~name:"SpecFloatToInt" ~ops:[ Combine.cc; Combine.cc ]
        ~loops:[ ("i", 5); ("k", 300) ] ~inp:[ ("x", [| 5; 300 |]) ] ~out_idx:[ i_; k_ ]
        Expr.(
          read "x" [ i_; k_ ]
          + cast Scalar.Fp32 (cast Scalar.Int32 (read "x" [ i_; k_ ] * f32 4.0))),
      "float-to-integer cast" );
    (* non-affine indices: integer Div, Mul of two indices, Min, Max, and
       an integer quotient used as a float *)
    ( hand_built ~name:"SpecNonAffine" ~ops:[ Combine.cc; add ]
        ~loops:[ ("i", 6); ("k", 300) ]
        ~inp:[ ("x", [| 6; 300 |]); ("y", [| 300 |]); ("z", [| 6; 300 |]) ]
        ~out_idx:[ i_ ]
        Expr.(
          (read "x" [ i_; k_ / int 2 ] * read "y" [ i_ * k_ / int 6 ])
          + read "z" [ emin i_ (int 3); emax k_ (int 5) - int 5 ]
          + cast Scalar.Fp32 (k_ / int 7)),
      "not affine" );
    ( hand_built ~name:"SpecNonAffineLet" ~ops:[ Combine.cc; add ]
        ~loops:[ ("i", 6); ("k", 300) ] ~inp:[ ("y", [| 300 |]) ] ~out_idx:[ i_ ]
        Expr.(let_ "q" (i_ * k_) (read "y" [ var "q" / int 6 ])),
      "not affine" );
    (* an integer quotient used as a value, which Semantics.exec truncates:
       alone, and as the body of a float Let *)
    ( hand_built ~name:"SpecIntDivValue" ~ops:[ Combine.cc ] ~loops:[ ("k", 300) ]
        ~inp:[ ("x", [| 300 |]) ] ~out_idx:[ k_ ]
        Expr.(read "x" [ k_ ] + cast Scalar.Fp32 (k_ / int 7)),
      "integer / not affine" );
    ( hand_built ~name:"SpecFloatLetIntBody" ~ops:[ Combine.cc ] ~loops:[ ("k", 300) ]
        ~inp:[ ("x", [| 300 |]) ] ~out_idx:[ k_ ]
        Expr.(read "x" [ k_ ] + cast Scalar.Fp32 (let_ "a" (read "x" [ k_ ]) k_ / int 2)),
      "integer / not affine" );
    (* a branch whose read is out of range at k = 299, where Semantics.exec
       does not take it (through a Let, the access is opaque to the
       directive's own range check) *)
    ( hand_built ~name:"SpecBranchRange" ~ops:[ Combine.cc ] ~loops:[ ("k", 300) ]
        ~inp:[ ("y", [| 300 |]) ] ~out_idx:[ k_ ]
        Expr.(let_ "j" (k_ + int 1) (if_ (var "j" < int 300) (read "y" [ var "j" ]) (f32 0.5))),
      "read of y under a branch not proven in range" );
    (* a comparison of a computed fp32 value, which Semantics.exec rounds
       after the product and a row does not *)
    ( hand_built ~name:"SpecComputedCompare" ~ops:[ add ] ~loops:[ ("k", 300) ]
        ~inp:[ ("x", [| 300 |]); ("y", [| 300 |]) ] ~out_idx:[ Expr.int 0 ]
        Expr.(
          if_ (read "x" [ k_ ] * f32 3.0 > read "y" [ k_ ]) (read "x" [ k_ ]) (read "y" [ k_ ])),
      "comparison > of computed fp32 values" );
    (* a custom ps operator *)
    ( typed ~name:"SpecCustomScan" ~ops:[ Combine.cc; Combine.ps sel_max ]
        ~loops:[ ("i", 3); ("k", 300) ] ~inp:[ ("x", Scalar.Fp64, [| 3; 300 |]) ]
        ~out:scored_ty ~out_idx:[ i_; k_ ]
        (Expr.MkRecord [ ("v", Expr.read "x" [ i_; k_ ]); ("id", Expr.(cast Scalar.Int64 k_)) ]),
      "non-builtin ps operator sel_max" );
    (* a commutative operator that is not associative, over two pw
       dimensions, whose nest may regroup the row-major fold *)
    ( (let avg =
         Combine.of_body ~name:"avg" ~ty:Scalar.Fp64 ~associative:false ~commutative:true
           Expr.((lhs + rhs) * f64 0.5)
       in
       typed ~name:"SpecAvgTwoPw" ~ops:[ Combine.pw avg; Combine.pw avg ]
         ~loops:[ ("i", 3); ("k", 300) ] ~inp:[ ("x", Scalar.Fp64, [| 3; 300 |]) ]
         ~out:Scalar.Fp64 ~out_idx:[ Expr.int 0 ] (Expr.read "x" [ i_; k_ ])),
      "operator avg over several pw dimensions is not associative" );
    (* an operator given only as a closure *)
    ( typed ~name:"SpecClosureOp" ~ops:[ Combine.pw (Combine.bor Scalar.Int32) ]
        ~loops:[ ("k", 300) ] ~inp:[ ("p", ints_ty, [| 300 |]) ] ~out:Scalar.Int32
        ~out_idx:[ Expr.int 0 ]
        Expr.(field (read "p" [ k_ ]) "a" + int 1000),
      "operator bor has no expression body" );
    (* int64 arithmetic on data (not an affine of the iteration point) *)
    ( typed ~name:"SpecInt64Data" ~ops:[ Combine.cc ] ~loops:[ ("k", 300) ]
        ~inp:[ ("p", ints_ty, [| 300 |]) ]
        ~out:(Scalar.Record [ ("v", Scalar.Int64) ]) ~out_idx:[ k_ ]
        (Expr.MkRecord
           [ ( "v",
               Expr.(cast Scalar.Int64 (field (read "p" [ k_ ]) "a") + cast Scalar.Int64 k_) ) ]),
      "int64 arithmetic on data" );
    (* a record input with an int64 field, which a float store cannot hold
       exactly *)
    ( typed ~name:"SpecInt64Field" ~ops:[ Combine.cc ] ~loops:[ ("k", 300) ]
        ~inp:[ ("p", Scalar.Record [ ("id", Scalar.Int64); ("w", Scalar.Fp64) ], [| 300 |]) ]
        ~out:Scalar.Fp64 ~out_idx:[ k_ ]
        Expr.(field (read "p" [ k_ ]) "w"),
      "field id of type int64" ) ]

(* The row cases run on the Specializer, with rows of 300 and 600 points
   that span two and three strips and end in a partial one, and the
   refused cases through [Exec.run], which runs the reference and counts
   one fallback per run; both against [Semantics.exec], under the
   sequential schedule and three pinned-random legal ones. The row cases
   also run under the parallel schedule, which distributes every cc
   dimension, so a custom operator's row runs across the cells. *)
let test_uncatalogued_forms_match_reference () =
  let rng = Rng.create 4242 in
  with_pool (fun pool ->
      let each_schedule ?(parallel = false) (md : Md_hom.t) run =
        let env = env_for 11 md in
        let expected = Semantics.exec md env in
        let label what = Printf.sprintf "%s under %s" md.Md_hom.hom_name what in
        run (label "the sequential schedule") (Schedule.sequential md) env expected;
        if parallel then
          run (label "the parallel schedule") (parallel_schedule md) env expected;
        let tried = ref 0 and draws = ref 0 in
        while !tried < 3 && !draws < 50 do
          incr draws;
          match Test_plan_exec.random_schedule rng md cpu with
          | None -> ()
          | Some sched ->
            incr tried;
            run (label (Schedule.to_string sched)) sched env expected
        done
      in
      List.iter
        (fun make ->
          List.iter
            (fun n ->
              let md = make n in
              each_schedule ~parallel:true md (fun label sched env expected ->
                  let label = Printf.sprintf "%s (row of %d)" label n in
                  let plan = plan_of md sched in
                  match Specializer.try_run pool plan md env with
                  | None ->
                    Alcotest.failf "%s: specializer refused (%s)" label
                      (match Specializer.supported plan md with
                      | Error e -> e
                      | Ok () -> "buffer binding failed")
                  | Some got -> check Alcotest.bool label true (matches md got expected)))
            [ 300; 600 ])
        row_cases;
      List.iter
        (fun (md, form) ->
          each_schedule md (fun label sched env expected ->
              (match Specializer.supported (plan_of md sched) md with
              | Ok () -> Alcotest.failf "%s: specializer accepted a form it refuses (%s)" label form
              | Error e ->
                if not (contains e form) then
                  Alcotest.failf "%s: refusal %S does not name %s" label e form);
              let f0 = Metrics.value fallbacks in
              let before = compiles_and_runs () in
              match Exec.run ~device:cpu pool md sched env with
              | Error e -> Alcotest.failf "%s: reference failed: %s" label e
              | Ok got ->
                check Alcotest.int (label ^ ": one fallback") (f0 + 1)
                  (Metrics.value fallbacks);
                check Alcotest.(list int) (label ^ ": one compile, no run")
                  (List.map2 ( + ) before [ 1; 0 ]) (compiles_and_runs ());
                check Alcotest.bool (label ^ " on the reference") true
                  (outputs_equal md got expected)))
        (refused_cases ()))

(* --- a record input whose elements are not of its type is declined --- *)

let test_malformed_record_declines () =
  let md =
    typed ~name:"SpecMalformed" ~ops:[ Combine.cc ] ~loops:[ ("k", 4) ]
      ~inp:[ ("p", mixed_ty, [| 4 |]) ] ~out:Scalar.Fp64 ~out_idx:[ k_ ]
      Expr.(field (read "p" [ k_ ]) "w")
  in
  (* a boxed store takes any value: an element that lacks the field [w],
     and one whose [w] is an int32, not an fp64 *)
  List.iter
    (fun (what, elt) ->
      let p = Dense.of_fn mixed_ty [| 4 |] (fun _ -> elt) in
      let env = Buffer.env_of_list [ Buffer.of_dense "p" p ] in
      Pool.with_pool ~num_domains:0 (fun pool ->
          check Alcotest.bool (what ^ ": declined, not raised") true
            (Specializer.try_run pool (plan_of md (Schedule.sequential md)) md env = None)))
    [ ("no field w", Scalar.R [ ("a", Scalar.i32 1) ]);
      ("int32 w", Scalar.R [ ("a", Scalar.i32 1); ("w", Scalar.i32 1) ]) ]

(* --- operators that share a name stay apart --- *)

(* Two operators named [sel] over the same input, one selecting the
   maximum and one the minimum: the Specializer runs each by its own body,
   and the Opcheck oracle, whose cache is keyed by the body, keeps a report
   for each. Two operators named [avg] with one body, one declared
   associative and one not, over two pw dimensions: the honest one is
   refused whether or not the other has run. *)
let test_same_named_operators_stay_apart () =
  let sel cmp =
    Combine.of_body ~name:"sel" ~ty:Scalar.Fp64 ~commutative:true
      (Expr.if_ (cmp lhs rhs) lhs rhs)
  in
  let smax = sel Expr.( >= ) and smin = sel Expr.( <= ) in
  let md op =
    typed ~name:"SpecSel" ~ops:[ Combine.cc; Combine.pw op ] ~loops:[ ("i", 4); ("k", 300) ]
      ~inp:[ ("x", Scalar.Fp64, [| 4; 300 |]) ] ~out:Scalar.Fp64 ~out_idx:[ i_ ]
      (Expr.read "x" [ i_; k_ ])
  in
  with_pool (fun pool ->
      let result op =
        let md = md op in
        let env = env_for 3 md in
        match Specializer.try_run pool (plan_of md (Schedule.sequential md)) md env with
        | None -> Alcotest.fail "sel refused"
        | Some got ->
          check Alcotest.bool "sel = Semantics.exec" true
            (matches md got (Semantics.exec md env));
          Buffer.data (Buffer.env_find got "r")
      in
      let rmax = result smax in
      let rmin = result smin in
      check Alcotest.bool "max and min selections differ" false (Dense.equal rmax rmin);
      let avg_md associative =
        let avg =
          Combine.of_body ~name:"avg" ~ty:Scalar.Fp64 ~associative ~commutative:true
            Expr.((lhs + rhs) / f64 2.0)
        in
        typed ~name:"SpecAvgPair" ~ops:[ Combine.pw avg; Combine.pw avg ]
          ~loops:[ ("i", 3); ("k", 300) ] ~inp:[ ("x", Scalar.Fp64, [| 3; 300 |]) ]
          ~out:Scalar.Fp64 ~out_idx:[ Expr.int 0 ] (Expr.read "x" [ i_; k_ ])
      in
      let honest = avg_md false and declared = avg_md true in
      let refused what =
        match Specializer.supported (plan_of honest (Schedule.sequential honest)) honest with
        | Ok () -> Alcotest.failf "honest avg accepted %s" what
        | Error e ->
          check Alcotest.bool ("honest avg refused " ^ what) true
            (contains e "not associative and commutative")
      in
      refused "on a cold call";
      (match
         Specializer.try_run pool (plan_of declared (Schedule.sequential declared)) declared
           (env_for 3 declared)
       with
      | Some _ -> ()
      | None -> Alcotest.fail "avg declared associative refused");
      refused "after the associative one ran");
  let verified = Metrics.counter "analysis.opcheck.operators" in
  let v0 = Metrics.value verified in
  let report_max = Opcheck_oracle.report ~seed:977 ~ty:Scalar.Fp64 smax in
  let report_min = Opcheck_oracle.report ~seed:977 ~ty:Scalar.Fp64 smin in
  check Alcotest.bool "a separate report for each" true (report_max != report_min);
  check Alcotest.int "each body verified" (v0 + 2) (Metrics.value verified)

(* --- outputs do not depend on the pool size --- *)

(* An fp64 sum over [cc; pw] whose rows hold 1e16, then 1s, then -1e16:
   a left fold loses every 1 to the 1e16 before it, and a fold regrouped
   anywhere along a row keeps the 1s of every group but the first, so it
   gives other bits than Semantics.exec's. The parallel schedule
   distributes [i] over a tree-reduced [k]. *)
let regroup_case () =
  let md =
    typed ~name:"SpecRegroup" ~ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp64) ]
      ~loops:[ ("i", 6); ("k", 37) ] ~inp:[ ("x", Scalar.Fp64, [| 6; 37 |]) ]
      ~out:Scalar.Fp64 ~out_idx:[ i_ ] (Expr.read "x" [ i_; k_ ])
  in
  let x =
    Dense.of_fn Scalar.Fp64 [| 6; 37 |] (fun ix ->
        Scalar.F64 (match ix.(1) with 0 -> 1e16 | 36 -> -1e16 | _ -> 1.0))
  in
  (md, Buffer.env_of_list [ Buffer.of_dense "x" x ])

(* Every catalogue computation, every row case with rows of 37 points and
   the regrouping case, under the parallel schedule, on pools of 1 and 3
   worker domains against the pool of none (and the regrouping case
   against Semantics.exec as well). Those pools cut the plan's split into
   up to 4 and 8 chunks. The split is the Distribute level when the plan has
   one, where a job may start and end inside a segment of the last
   distributed dimension (SpecCasts, the SpecScanMid cases,
   SpecFoldOrder); otherwise it is the Tree_reduce level, and each job
   folds a partial: of a builtin (SpecRootIf, SpecPwMul, SpecPwMin,
   SpecPwMax) or of a custom operator (SpecRecordOneCell). Together the row cases reach every
   loop order a job runs: the row on a nest step (SpecScanInner, the
   SpecScanMid cases), on the tree, a nest loop under the Distribute level
   (SpecLets, the SpecPwOuter cases), on the segment (SpecCasts, SpecFp64,
   and every tree split), and a custom operator's segment moved last,
   after a nest step (SpecFoldOrder) or after the tree (SpecRecordPwRow).
   One more case folds a custom operator's partials over more cells than a
   register strip holds: PRL (a selection, so exact) with its pw dimension
   the plan's only parallel one, 600 cells in rows of 40. *)
let test_pool_size_bit_identity () =
  let parallel md env exact = (md, env, plan_of md (parallel_schedule md), exact) in
  let regroup =
    let md, env = regroup_case () in
    let ((_, _, plan, _) as case) = parallel md env true in
    check Alcotest.bool (md.hom_name ^ ": Distribute over Tree_reduce") true
      (Plan.distributed plan <> [] && Plan.tree plan <> None);
    case
  in
  let strips =
    let params = [ ("N", 600); ("I", 40) ] in
    let md = W.to_md_hom Mdh_workloads.Prl.prl params in
    let tree =
      List.filter
        (fun d -> Combine.collapses md.combine_ops.(d))
        (Lower.parallelisable_dims md)
    in
    let plan = plan_of md { (Schedule.sequential md) with parallel_dims = tree } in
    check Alcotest.bool "PRL strips: Tree_reduce and no Distribute" true
      (Plan.distributed plan = [] && Plan.tree plan <> None);
    (md, Mdh_workloads.Prl.prl.W.gen params ~seed:17, plan, true)
  in
  let cases =
    List.map
      (fun (w : W.t) ->
        parallel (W.to_md_hom w w.W.test_params) (w.W.gen w.W.test_params ~seed:17) false)
      Catalog.all
    @ List.map
        (fun make ->
          let md = make 37 in
          parallel md (env_for 17 md) false)
        row_cases
    @ [ regroup; strips ]
  in
  List.iter
    (fun ((md : Md_hom.t), env, plan, exact) ->
      let outputs num_domains =
        match Pool.with_pool ~num_domains (fun pool -> Specializer.try_run pool plan md env) with
        | Some got -> got
        | None -> Alcotest.failf "%s refused on %d domains" md.hom_name num_domains
      in
      let references =
        ("0 worker domains", outputs 0)
        :: (if exact then [ ("Semantics.exec", Semantics.exec md env) ] else [])
      in
      List.iter
        (fun num_domains ->
          let got = outputs num_domains in
          List.iter
            (fun (what, expected) ->
              List.iter
                (fun (o : Md_hom.output) ->
                  let data e = Buffer.data (Buffer.env_find e o.Md_hom.out_name) in
                  check Alcotest.bool
                    (Printf.sprintf "%s.%s: %d worker domains and %s agree bit for bit"
                       md.hom_name o.Md_hom.out_name num_domains what)
                    true
                    (Dense.equal (data expected) (data got)))
                md.outputs)
            references)
        [ 1; 3 ])
    cases

(* --- product rows: [read * read] folded along a pw row in one loop --- *)

(* Minor words of one warm [Specializer.try_run]: on a pool without
   worker domains the count is deterministic. *)
let minor_words pool plan md env =
  let w0 = Gc.minor_words () in
  let r = Specializer.try_run pool plan md env in
  let w1 = Gc.minor_words () in
  if r = None then Alcotest.failf "%s refused" md.Md_hom.hom_name;
  w1 -. w0

(* [md] with every output's value [x * y] spelled [(x * y) * 1]: exact in
   double, but not a product of two reads, so its rows run through
   registers. *)
let through_registers (md : Md_hom.t) =
  let one (o : Md_hom.output) =
    Expr.Const (if Scalar.equal_ty o.out_ty Scalar.Fp64 then Scalar.F64 1.0 else Scalar.f32 1.0)
  in
  { md with
    Md_hom.outputs =
      List.map
        (fun (o : Md_hom.output) -> { o with Md_hom.value = Expr.(o.value * one o) })
        md.Md_hom.outputs }

(* Inputs near 1, so that a product of a thousand of them stays finite. *)
let near_one seed (md : Md_hom.t) =
  let rng = Rng.create seed in
  Buffer.env_of_list
    (List.map
       (fun (i : Md_hom.input) ->
         Buffer.of_dense i.Md_hom.inp_name
           (Dense.of_fn i.inp_ty i.inp_shape (fun _ ->
                let v = 1.0 +. ((Rng.float rng 2.0 -. 1.0) /. 64.0) in
                if Scalar.equal_ty i.inp_ty Scalar.Fp64 then Scalar.F64 v else Scalar.f32 v)))
       md.Md_hom.inputs)

(* Products folded along a row of [n] points: [x[i,k] * y[k]] and
   [y[k] * x[i,k]] (matvec with commuted operands) into every builtin
   fold, fp32 and fp64; matmul with commuted operands
   ([b[k,j] * a[i,k]]); and MatMul^T ([A[k,i] * B[j,k]]). The first read
   of the commuted matmul and of MatMul^T is strided along the row. *)
let product_cases =
  let generic (opname, op) ty swap n =
    let tyname = if Scalar.equal_ty ty Scalar.Fp64 then "64" else "32" in
    let x = Expr.read "x" [ i_; k_ ] and y = Expr.read "y" [ k_ ] in
    typed
      ~name:(Printf.sprintf "SpecProduct%s%s%s" opname tyname (if swap then "Swapped" else ""))
      ~ops:[ Combine.cc; Combine.pw (op ty) ] ~loops:[ ("i", 3); ("k", n) ]
      ~inp:[ ("x", ty, [| 3; n |]); ("y", ty, [| n |]) ] ~out:ty ~out_idx:[ i_ ]
      (if swap then Expr.(y * x) else Expr.(x * y))
  in
  let commuted_matmul n =
    hand_built ~name:"SpecProductMatMulCommuted"
      ~ops:[ Combine.cc; Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
      ~loops:[ ("i", 3); ("j", 4); ("k", n) ] ~inp:[ ("a", [| 3; n |]); ("b", [| n; 4 |]) ]
      ~out_idx:[ i_; j_ ]
      Expr.(read "b" [ k_; j_ ] * read "a" [ i_; k_ ])
  in
  let matmul_t n = W.to_md_hom Mdh_workloads.Linalg.matmul_t [ ("I", 3); ("J", 4); ("K", n) ] in
  List.concat_map
    (fun op ->
      List.concat_map
        (fun ty -> [ generic op ty false; generic op ty true ])
        [ Scalar.Fp32; Scalar.Fp64 ])
    [ ("Add", Combine.add); ("Mul", Combine.mul); ("Min", Combine.min); ("Max", Combine.max) ]
  @ [ commuted_matmul; matmul_t ]

(* Every product case at rows of 1, 255, 256, 257 and 1000 points, under
   the sequential and the parallel schedule (whose rows also run along the
   pw dimension) on a pool without worker domains: equal under
   [Dense.equal] to the same product through registers, and to
   [Semantics.exec]. A row of at least 255 points shows that it folded in
   one loop: its warm call allocates at least a strip of three registers
   (3 x 256 words: two reads and their product) fewer minor words than
   the same product through registers. *)
let test_product_rows_match_registers () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      List.iter
        (fun make ->
          List.iter
            (fun n ->
              let md = make n in
              let unfused = through_registers md in
              let env = near_one 19 md in
              List.iter
                (fun (what, schedule) ->
                  let label = Printf.sprintf "%s, row of %d, %s schedule" md.hom_name n what in
                  let plan = plan_of md (schedule md) in
                  let run md =
                    match Specializer.try_run pool plan md env with
                    | Some got -> got
                    | None -> Alcotest.failf "%s refused" label
                  in
                  let fused = run md in
                  check Alcotest.bool (label ^ " = through registers") true
                    (outputs_equal md fused (run unfused));
                  check Alcotest.bool (label ^ " = Semantics.exec") true
                    (matches md fused (Semantics.exec md env));
                  if n >= 255 then begin
                    let saved =
                      minor_words pool plan unfused env -. minor_words pool plan md env
                    in
                    if saved < 3.0 *. 256.0 then
                      Alcotest.failf "%s: %.0f minor words fewer than through registers" label
                        saved
                  end)
                [ ("sequential", Schedule.sequential); ("parallel", parallel_schedule) ])
            [ 1; 255; 256; 257; 1000 ])
        product_cases)

(* --- allocation gate: no allocation per iteration point --- *)

(* Minor words one warm call may allocate beyond the same call on the
   smaller input: per-call set-up that depends on the sizes (registers
   sized to a row, small output buffers), which stays under 700 words on
   every case below. Each pair of sizes differs
   by at least 8x and by 14,000 iteration points or more, so allocating a
   word per point, or a few words per row, exceeds it. The parallel
   schedule puts PRL, KMeans and the custom-operator row cases over a cc
   dimension under Distribute (and Tree_reduce when the operator is
   associative), so their rows run across the cells; the sequential one
   keeps them folding lane by lane. *)
let alloc_slack = 2048.0

let test_no_allocation_per_point () =
  let catalogue name small big =
    let w = Option.get (Catalog.find name) in
    (name, (fun p -> W.to_md_hom w p), (fun p _ -> w.W.gen p ~seed:5), small, big)
  in
  let hand make =
    ( (make 1024).Md_hom.hom_name,
      (fun p -> make (List.assoc "n" p)),
      (fun _ md -> env_for 5 md),
      [ ("n", 1024) ],
      [ ("n", 16384) ] )
  in
  let cases =
    [ catalogue "dot" [ ("K", 1024) ] [ ("K", 16384) ];
      catalogue "matvec" [ ("I", 16); ("K", 64) ] [ ("I", 64); ("K", 256) ];
      catalogue "matmul" [ ("I", 8); ("J", 8); ("K", 16) ] [ ("I", 16); ("J", 16); ("K", 64) ];
      catalogue "bmatmul" [ ("B", 2); ("I", 4); ("J", 4); ("K", 16) ]
        [ ("B", 4); ("I", 8); ("J", 16); ("K", 32) ];
      catalogue "ccsd(t)"
        [ ("h3", 2); ("h2", 2); ("h1", 2); ("p6", 2); ("p5", 2); ("p4", 2); ("h7", 4) ]
        [ ("h3", 4); ("h2", 4); ("h1", 4); ("p6", 4); ("p5", 2); ("p4", 2); ("h7", 16) ];
      catalogue "jacobi_3d" [ ("N", 6) ] [ ("N", 26) ];
      catalogue "mbbs" [ ("I", 8); ("J", 16) ] [ ("I", 64); ("J", 256) ];
      catalogue "mcc"
        [ ("N", 1); ("P", 2); ("Q", 2); ("K", 2); ("R", 2); ("S", 2); ("C", 4) ]
        [ ("N", 1); ("P", 4); ("Q", 4); ("K", 8); ("R", 3); ("S", 3); ("C", 16) ];
      catalogue "gaussian_2d" [ ("N", 8); ("M", 256) ] [ ("N", 128); ("M", 256) ];
      catalogue "jacobi1d" [ ("N", 1024) ] [ ("N", 16384) ];
      catalogue "matmul^t" [ ("I", 4); ("J", 4); ("K", 256) ] [ ("I", 16); ("J", 16); ("K", 256) ];
      catalogue "mcc_caps"
        [ ("N", 1); ("P", 2); ("Q", 2); ("K", 2); ("R", 2); ("S", 2); ("C", 2); ("M", 4) ]
        [ ("N", 1); ("P", 4); ("Q", 4); ("K", 8); ("R", 3); ("S", 3); ("C", 4); ("M", 4) ];
      (* the outputs stay fixed; the grown record input is unpacked anew
         on each call, into float stores that must not box per element *)
      catalogue "prl" [ ("N", 8); ("I", 256) ] [ ("N", 8); ("I", 2048) ];
      catalogue "kmeans" [ ("N", 8); ("K", 256) ] [ ("N", 8); ("K", 2048) ] ]
    @ List.map hand row_cases
  in
  Pool.with_pool ~num_domains:0 (fun pool ->
      List.iter
        (fun (name, make, gen, small, big) ->
          List.iter
            (fun (what, schedule) ->
              let words params =
                let md = make params in
                let env = gen params md in
                let plan = plan_of md (schedule md) in
                ignore (minor_words pool plan md env);  (* warm-up *)
                (minor_words pool plan md env, Md_hom.total_points md)
              in
              let ws, ps = words small and wb, pb = words big in
              if pb < 8 * ps || pb - ps < 14_000 then
                Alcotest.failf "%s: sizes too close (%d vs %d points)" name ps pb;
              if wb -. ws > alloc_slack then
                Alcotest.failf
                  "%s under the %s schedule: %.0f minor words at %d points, %.0f at %d \
                   (%.2f words per extra point; slack %.0f)"
                  name what ws ps wb pb ((wb -. ws) /. float_of_int (pb - ps)) alloc_slack)
            [ ("sequential", Schedule.sequential); ("parallel", parallel_schedule) ])
        cases)

let suite =
  let tc = Alcotest.test_case in
  ( "specializer",
    [ tc "specializer matches reference across catalogue" `Slow
        test_specializer_matches_reference;
      tc "interp runs the reference" `Quick test_interp_runs_reference;
      tc "zero-extent workloads execute" `Quick test_zero_extent_runs;
      tc "mismatched inputs are an error" `Quick test_mismatched_inputs_error;
      tc "generated C reduction identities" `Slow test_openmp_identity_init;
      tc "compiled C matches reference across catalogue" `Slow
        test_cc_matches_reference;
      tc "uncatalogued forms match reference" `Quick
        test_uncatalogued_forms_match_reference;
      tc "same-named operators stay apart" `Quick test_same_named_operators_stay_apart;
      tc "malformed record input declines" `Quick test_malformed_record_declines;
      tc "outputs bit-identical across pool sizes" `Quick
        test_pool_size_bit_identity;
      tc "product rows match registers" `Quick test_product_rows_match_registers;
      tc "no allocation per iteration point" `Quick test_no_allocation_per_point ] )
