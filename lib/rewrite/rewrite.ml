module Scalar = Mdh_tensor.Scalar
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module Eanalysis = Mdh_expr.Analysis
module Md_hom = Mdh_core.Md_hom
module Device = Mdh_machine.Device
module Roofline = Mdh_machine.Roofline
module Plan = Mdh_lowering.Plan
module Cost = Mdh_lowering.Cost
module Schedule = Mdh_lowering.Schedule
module Json = Mdh_obs.Json

type property = Associative | Commutative

type verdict =
  | Proved of { evaluations : int }
  | Refuted of { witness : string }
  | Unknown of string

type oracle = {
  oracle_name : string;
  prove : Scalar.ty -> Combine.custom_fn -> property -> verdict;
}

let pure_oracle =
  { oracle_name = "pure";
    prove = (fun _ _ _ -> Unknown "no verification oracle attached") }

let property_name = function
  | Associative -> "associative"
  | Commutative -> "commutative"

type justification =
  | Pure of string
  | Algebra of { alg_op : string; alg_property : property; alg_evaluations : int }

type applied = {
  ap_tier : [ `Expr | `Plan ];
  ap_rule : string;
  ap_site : string;
  ap_detail : string;
  ap_just : justification;
}

let justification_to_string = function
  | Pure why -> "pure identity: " ^ why
  | Algebra { alg_op; alg_property; alg_evaluations } ->
    Printf.sprintf "verified property: %s is %s (oracle held on %d evaluations)"
      alg_op (property_name alg_property) alg_evaluations

let rec exact_scalar_domain = function
  | Scalar.Int32 | Scalar.Int64 | Scalar.Bool | Scalar.Char -> true
  | Scalar.Fp32 | Scalar.Fp64 -> false
  | Scalar.Record fields -> List.for_all (fun (_, ty) -> exact_scalar_domain ty) fields

(* --- tier 1: expression saturation ------------------------------------ *)

(* An expression is total when no evaluation can raise. Integer division
   is the one partial scalar operation the language exposes ([Read]s are
   in-bounds by directive validation), so rules that drop or unconditionally
   evaluate a subexpression require this. *)
let rec total = function
  | Expr.Binop (Expr.Div, _, _) -> false
  | e -> List.for_all total (Expr.children e)

let shorten s =
  if String.length s <= 64 then s else String.sub s 0 61 ^ "..."

let estr e = shorten (Expr.to_string e)

let is_int_const n = function
  | Expr.Const (Scalar.I32 x) -> Int32.to_int x = n
  | Expr.Const (Scalar.I64 x) -> Int64.to_int x = n
  | _ -> false

(* both operands are integer constants of the same width: their values and
   a constructor rebuilding a constant of that width *)
let int_consts a b =
  match (a, b) with
  | Expr.Const (Scalar.I32 x), Expr.Const (Scalar.I32 y) ->
    Some (Int32.to_int x, Int32.to_int y, fun n -> Expr.Const (Scalar.i32 n))
  | Expr.Const (Scalar.I64 x), Expr.Const (Scalar.I64 y) ->
    Some (Int64.to_int x, Int64.to_int y, fun n -> Expr.Const (Scalar.i64 n))
  | _ -> None

let is_fp_const x = function
  | Expr.Const (Scalar.F32 v) | Expr.Const (Scalar.F64 v) -> Float.equal v x
  | _ -> false

(* strength reduction duplicates its operand, so restrict it to leaves:
   no recomputed flops, no duplicated memory reads *)
let leafy = function
  | Expr.Idx _ | Expr.Var _ | Expr.Const _ -> true
  | _ -> false

type emitter = rule:string -> detail:string -> just:justification -> unit

let rw_binop (emit : emitter) op a b =
  let default = Expr.Binop (op, a, b) in
  let fire rule why e' =
    emit ~rule
      ~detail:(Printf.sprintf "%s -> %s" (estr default) (estr e'))
      ~just:(Pure why);
    e'
  in
  let fold mk n why = fire "const-fold" why (mk n) in
  match op with
  | Expr.Add -> (
    if is_int_const 0 a then
      fire "add-zero" "adding integer zero is the identity" b
    else if is_int_const 0 b then
      fire "add-zero" "adding integer zero is the identity" a
    else
      match int_consts a b with
      | Some (x, y, mk) -> fold mk (x + y) "integer addition of constants"
      | None -> default)
  | Expr.Sub -> (
    if is_int_const 0 b then
      fire "sub-zero" "subtracting integer zero is the identity" a
    else
      match int_consts a b with
      | Some (x, y, mk) -> fold mk (x - y) "integer subtraction of constants"
      | None -> default)
  | Expr.Mul -> (
    if is_int_const 1 a then
      fire "mul-one" "multiplying by integer one is the identity" b
    else if is_int_const 1 b then
      fire "mul-one" "multiplying by integer one is the identity" a
    else if is_fp_const 1.0 a then
      fire "mul-one" "IEEE-754 multiplication by one is exact for every value" b
    else if is_fp_const 1.0 b then
      fire "mul-one" "IEEE-754 multiplication by one is exact for every value" a
    else if is_int_const 0 a && total b then
      fire "mul-zero" "integer multiplication by zero absorbs (dropped operand is total)" a
    else if is_int_const 0 b && total a then
      fire "mul-zero" "integer multiplication by zero absorbs (dropped operand is total)" b
    else
      match int_consts a b with
      | Some (x, y, mk) -> fold mk (x * y) "integer multiplication of constants"
      | None ->
        if (is_int_const 2 a || is_fp_const 2.0 a) && leafy b then
          fire "strength-reduce"
            "x + x computes 2*x exactly (wrap-around and IEEE-754 included)"
            (Expr.Binop (Expr.Add, b, b))
        else if (is_int_const 2 b || is_fp_const 2.0 b) && leafy a then
          fire "strength-reduce"
            "x + x computes 2*x exactly (wrap-around and IEEE-754 included)"
            (Expr.Binop (Expr.Add, a, a))
        else default)
  | Expr.Div -> (
    if is_int_const 1 b then
      fire "div-one" "integer division by one is the identity" a
    else if is_fp_const 1.0 b then
      fire "div-one" "IEEE-754 division by one is exact for every value" a
    else
      match int_consts a b with
      | Some (x, y, mk) when y <> 0 ->
        fold mk (x / y) "integer division of constants (non-zero divisor)"
      | _ -> default)
  | Expr.Min | Expr.Max ->
    if Stdlib.( = ) a b then
      fire "minmax-absorb"
        "min/max of an expression with itself is that expression" a
    else default
  | Expr.And -> (
    match (a, b) with
    | Expr.Const (Scalar.B true), other | other, Expr.Const (Scalar.B true) ->
      fire "bool-identity" "conjunction with true is the identity" other
    | (Expr.Const (Scalar.B false) as f), other when total other ->
      fire "bool-absorb" "conjunction with false absorbs (dropped operand is total)" f
    | other, (Expr.Const (Scalar.B false) as f) when total other ->
      fire "bool-absorb" "conjunction with false absorbs (dropped operand is total)" f
    | _ -> default)
  | Expr.Or -> (
    match (a, b) with
    | Expr.Const (Scalar.B false), other | other, Expr.Const (Scalar.B false) ->
      fire "bool-identity" "disjunction with false is the identity" other
    | (Expr.Const (Scalar.B true) as t), other when total other ->
      fire "bool-absorb" "disjunction with true absorbs (dropped operand is total)" t
    | other, (Expr.Const (Scalar.B true) as t) when total other ->
      fire "bool-absorb" "disjunction with true absorbs (dropped operand is total)" t
    | _ -> default)
  | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> default

let rw_unop (emit : emitter) op a =
  let default = Expr.Unop (op, a) in
  let fire rule why e' =
    emit ~rule
      ~detail:(Printf.sprintf "%s -> %s" (estr default) (estr e'))
      ~just:(Pure why);
    e'
  in
  match (op, a) with
  | Expr.Neg, Expr.Unop (Expr.Neg, inner) ->
    fire "involution" "negation is an involution" inner
  | ( Expr.Neg,
      Expr.Const ((Scalar.F32 _ | Scalar.F64 _ | Scalar.I32 _ | Scalar.I64 _) as v) )
    ->
    fire "const-fold" "negation of a numeric constant" (Expr.Const (Scalar.neg v))
  | Expr.Not, Expr.Unop (Expr.Not, inner) ->
    fire "involution" "logical not is an involution" inner
  | Expr.Not, Expr.Const (Scalar.B b) ->
    fire "const-fold" "negation of a boolean constant" (Expr.Const (Scalar.B (not b)))
  | _ -> default

let rw_if (emit : emitter) c a b =
  let default = Expr.If (c, a, b) in
  let fire rule why e' =
    emit ~rule
      ~detail:(Printf.sprintf "%s -> %s" (estr default) (estr e'))
      ~just:(Pure why);
    e'
  in
  match c with
  | Expr.Const (Scalar.B true) ->
    fire "if-const" "condition is constant true" a
  | Expr.Const (Scalar.B false) ->
    fire "if-const" "condition is constant false" b
  | _ ->
    if Stdlib.( = ) a b && total c then
      fire "if-same" "both branches are the same expression and the condition is total" a
    else default

let rw_let (emit : emitter) name value body =
  let default = Expr.Let (name, value, body) in
  if (not (Eanalysis.uses_var name body)) && total value then (
    emit ~rule:"dead-let"
      ~detail:(Printf.sprintf "let %s = %s dropped (unused, total)" name (estr value))
      ~just:(Pure "the binding is unused and its value cannot raise");
    body)
  else default

(* one bottom-up pass: children first (in [Expr.map_children] order, which
   fixes the order of the provenance log), then the node's own rules *)
let rec pass emit e =
  match Expr.map_children (pass emit) e with
  | Expr.Binop (op, a, b) -> rw_binop emit op a b
  | Expr.Unop (op, a) -> rw_unop emit op a
  | Expr.If (c, a, b) -> rw_if emit c a b
  | Expr.Let (n, v, body) -> rw_let emit n v body
  | e' -> e'

let fixpoint emit e0 =
  let rec fix n e =
    if n = 0 then e
    else
      let e' = pass emit e in
      if Stdlib.( = ) e' e then e else fix (n - 1) e'
  in
  fix 8 e0

let simplify_expr = fixpoint (fun ~rule:_ ~detail:_ ~just:_ -> ())

(* --- common-subexpression elimination --- *)

let rec esize e = List.fold_left (fun acc c -> acc + esize c) 1 (Expr.children e)

let rec contains p e = p e || List.exists (contains p) (Expr.children e)

let contains_var = contains (function Expr.Var _ -> true | _ -> false)
let contains_let = contains (function Expr.Let _ -> true | _ -> false)
let contains_read = contains (function Expr.Read _ -> true | _ -> false)

let subtree_counts root =
  let tbl = Hashtbl.create 64 in
  Expr.iter
    (function
      | Expr.Const _ | Expr.Idx _ | Expr.Var _ -> ()
      | e -> Hashtbl.replace tbl e (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e)))
    root;
  tbl

let used_names root =
  let tbl = Hashtbl.create 16 in
  Expr.iter
    (function
      | Expr.Idx n | Expr.Var n | Expr.Read (n, _) | Expr.Let (n, _, _) ->
        Hashtbl.replace tbl n ()
      | _ -> ())
    root;
  tbl

let fresh_name used =
  let rec go k =
    let name = "_r" ^ string_of_int k in
    if Hashtbl.mem used name then go (k + 1) else name
  in
  go 0

let rec subst ~target ~name e =
  if Stdlib.( = ) e target then Expr.Var name
  else Expr.map_children (subst ~target ~name) e

(* One CSE hoist: pick the most valuable repeated total subtree, bind it
   once at the outermost scope, replace every occurrence with the binding.
   Candidates carry no [Var] (an enclosing-let reference would escape its
   binder) and no [Let] (keeps the hoist closed); they are total, so
   evaluating them unconditionally — even occurrences that sat under an
   [If] branch — cannot raise, and the bound value is bit-identical at
   every former occurrence site. *)
let cse_step (emit : emitter) root =
  let counts = subtree_counts root in
  let candidates =
    Hashtbl.fold
      (fun e n acc ->
        if
          n >= 2 && total e
          && (not (contains_var e))
          && (not (contains_let e))
          && (contains_read e || Eanalysis.flops e >= 1)
        then (e, n) :: acc
        else acc)
      counts []
    |> List.sort (fun (a, _) (b, _) ->
           match compare (Eanalysis.flops b) (Eanalysis.flops a) with
           | 0 -> (
             match compare (esize b) (esize a) with
             | 0 -> compare (Expr.to_string a) (Expr.to_string b)
             | c -> c)
           | c -> c)
  in
  let flops0 = Eanalysis.flops root in
  let try_candidate (sub, n) =
    let used = used_names root in
    let name = fresh_name used in
    let hoisted = Expr.Let (name, sub, subst ~target:sub ~name root) in
    (* [If] charges max over its branches, so a hoist out of the cold
       branch could raise the modelled flops: keep only non-worsening *)
    if Eanalysis.flops hoisted <= flops0 then Some (hoisted, sub, n) else None
  in
  match List.find_map try_candidate candidates with
  | None -> None
  | Some (hoisted, sub, n) ->
    emit ~rule:"cse"
      ~detail:
        (Printf.sprintf "%d occurrences of %s hoisted into a let (%d -> %d flops)"
           n (estr sub) flops0 (Eanalysis.flops hoisted))
      ~just:
        (Pure
           "the shared subexpression is total; a let-binding evaluates it once \
            and every occurrence reads the identical value");
    Some hoisted

let saturate_expr ?(site = "expr") e0 =
  let log = ref [] in
  let emit ~rule ~detail ~just =
    log :=
      { ap_tier = `Expr; ap_rule = rule; ap_site = site; ap_detail = detail;
        ap_just = just }
      :: !log
  in
  let e1 = fixpoint emit e0 in
  let rec cse n e =
    if n = 0 then e
    else match cse_step emit e with Some e' -> cse (n - 1) e' | None -> e
  in
  let e2 = cse 8 e1 in
  (e2, List.rev !log)

let saturate_outputs (md : Md_hom.t) =
  let log = ref [] in
  let outputs =
    List.map
      (fun (o : Md_hom.output) ->
        let v', applied =
          saturate_expr ~site:(o.Md_hom.out_name ^ ".value") o.Md_hom.value
        in
        log := !log @ applied;
        { o with Md_hom.value = v' })
      md.Md_hom.outputs
  in
  ({ md with Md_hom.outputs }, !log)

(* --- tier 2: plan saturation ------------------------------------------- *)

let plan_seconds md dev cg plan =
  (Cost.analyse_plan md dev cg plan).Cost.breakdown.Roofline.total_s

let replace_levels plan levels = { plan with Plan.levels }

let set_tile plan d v =
  let tile_sizes = Array.copy plan.Plan.tile_sizes in
  tile_sizes.(d) <- v;
  { plan with Plan.tile_sizes }

(* a candidate single-step rewrite: the rewritten plan plus provenance;
   [gated] candidates are kept only when the cost model does not worsen *)
type plan_step = {
  ps_plan : Plan.t;
  ps_rule : string;
  ps_site : string;
  ps_detail : string;
  ps_just : justification;
  ps_gated : bool;
}

let find_pair p levels =
  let rec go i before = function
    | a :: b :: rest -> (
      match p a b with
      | Some r -> Some (i, List.rev before, r, rest)
      | None -> go (i + 1) (a :: before) (b :: rest))
    | _ -> None
  in
  go 0 [] levels

let try_seq_fuse plan =
  find_pair
    (fun a b ->
      match (a, b) with
      | Plan.Seq { dim = d1; extent = e1 }, Plan.Seq { dim = d2; extent = e2 }
        when d1 = d2 ->
        Some (d1, e1, e2)
      | _ -> None)
    plan.Plan.levels
  |> Option.map (fun (i, before, (d, e1, e2), rest) ->
         { ps_plan =
             replace_levels plan (before @ (Plan.Seq { dim = d; extent = e1 * e2 } :: rest));
           ps_rule = "seq-fuse";
           ps_site = Printf.sprintf "L%d" i;
           ps_detail =
             Printf.sprintf "dim %d: adjacent loops of %d and %d fused into %d" d e1
               e2 (e1 * e2);
           ps_just =
             Pure "adjacent loops over the same dimension iterate its extent exactly once";
           ps_gated = false })

let try_seq_drop plan =
  let rec go i before prev = function
    | (Plan.Seq { dim; extent = 1 }) :: rest
      when match prev with
           | Some (Plan.Tile { dim = td; _ }) -> td <> dim
           | _ -> true ->
      Some
        { ps_plan = replace_levels plan (List.rev before @ rest);
          ps_rule = "seq-drop-unit";
          ps_site = Printf.sprintf "L%d" i;
          ps_detail = Printf.sprintf "dim %d: loop of one iteration removed" dim;
          ps_just = Pure "a loop of one iteration is its body";
          ps_gated = false }
    | l :: rest -> go (i + 1) (l :: before) (Some l) rest
    | [] -> None
  in
  go 0 [] None plan.Plan.levels

let try_tile_elim plan =
  find_pair
    (fun a b ->
      match (a, b) with
      | Plan.Tile { dim; tile = 1; extent }, Plan.Seq { dim = d2; extent = 1 }
        when d2 = dim ->
        Some (dim, extent)
      | _ -> None)
    plan.Plan.levels
  |> Option.map (fun (i, before, (d, extent), rest) ->
         { ps_plan =
             set_tile
               (replace_levels plan (before @ (Plan.Seq { dim = d; extent } :: rest)))
               d extent;
           ps_rule = "tile-elim-unit";
           ps_site = Printf.sprintf "L%d" i;
           ps_detail =
             Printf.sprintf "dim %d: unit tile eliminated (tile 1 -> %d)" d extent;
           ps_just = Pure "a tile of one element per block is the untiled loop";
           ps_gated = true })

let try_tile_merge plan =
  find_pair
    (fun a b ->
      match (a, b) with
      | Plan.Tile { dim; tile; extent }, Plan.Seq { dim = d2; extent = e2 }
        when d2 = dim && e2 = tile && tile > 1 && extent mod tile = 0 ->
        Some (dim, tile, extent)
      | _ -> None)
    plan.Plan.levels
  |> Option.map (fun (i, before, (d, tile, extent), rest) ->
         { ps_plan =
             set_tile
               (replace_levels plan (before @ (Plan.Seq { dim = d; extent } :: rest)))
               d extent;
           ps_rule = "tile-merge-divisible";
           ps_site = Printf.sprintf "L%d" i;
           ps_detail =
             Printf.sprintf
               "dim %d: %d-element tile merged into the %d-iteration loop" d tile
               extent;
           ps_just =
             Pure
               "the tile extent divides the dimension extent; merging tile and \
                intra-tile loops is the identity";
           ps_gated = true })

let declared_refuted oracle ty fn =
  let bad declared prop =
    declared
    &&
    match oracle.prove ty fn prop with Refuted _ -> true | Proved _ | Unknown _ -> false
  in
  bad fn.Combine.associative Associative || bad fn.Combine.commutative Commutative

(* Reassociating a reduction is sound only when (i) the oracle proved the
   operator associative, (ii) no declared property was refuted — a wrong
   declaration poisons the operator's metadata wholesale — and (iii) the
   proof transfers from the sample domain to the full domain: exact
   scalars, or builtin min/max (selection never rounds). The declared
   [associative]/[commutative] flags alone never justify anything here. *)
let reassociation_justification oracle ty fn =
  match oracle.prove ty fn Associative with
  | Proved { evaluations }
    when (not (declared_refuted oracle ty fn))
         && (exact_scalar_domain ty
            || fn.Combine.builtin
               && (String.equal fn.Combine.fn_name "min"
                  || String.equal fn.Combine.fn_name "max")) ->
    Some
      (Algebra
         { alg_op = fn.Combine.fn_name; alg_property = Associative;
           alg_evaluations = evaluations })
  | _ -> None

let floor_pow2 n =
  let rec go p = if p * 2 <= n then go (p * 2) else p in
  if n < 1 then 1 else go 1

let try_tree_balance oracle (md : Md_hom.t) plan =
  let rec go i before = function
    | (Plan.Tree_reduce { dim; op; items; extent }) :: rest
      when items > 1 && items land (items - 1) <> 0 -> (
      let fn = Combine.custom_fn_of md.Md_hom.combine_ops.(dim) in
      let ty =
        match md.Md_hom.outputs with
        | o :: _ -> Some o.Md_hom.out_ty
        | [] -> None
      in
      match (fn, ty) with
      | Some fn, Some ty -> (
        match reassociation_justification oracle ty fn with
        | Some just ->
          let items' = floor_pow2 items in
          Some
            { ps_plan =
                replace_levels plan
                  (List.rev before
                  @ (Plan.Tree_reduce { dim; op; items = items'; extent } :: rest));
              ps_rule = "tree-balance";
              ps_site = Printf.sprintf "L%d" i;
              ps_detail =
                Printf.sprintf
                  "dim %d: tree-reduce rebalanced from %d to %d cooperating items"
                  dim items items';
              ps_just = just;
              ps_gated = false }
        | None -> go (i + 1) (Plan.Tree_reduce { dim; op; items; extent } :: before) rest)
      | _ -> go (i + 1) (Plan.Tree_reduce { dim; op; items; extent } :: before) rest)
    | l :: rest -> go (i + 1) (l :: before) rest
    | [] -> None
  in
  go 0 [] plan.Plan.levels

let saturate_plan ~oracle (md : Md_hom.t) dev cg plan0 =
  let log = ref [] in
  let emit ps =
    log :=
      { ap_tier = `Plan; ap_rule = ps.ps_rule; ap_site = ps.ps_site;
        ap_detail = ps.ps_detail; ap_just = ps.ps_just }
      :: !log
  in
  let seconds p = plan_seconds md dev cg p in
  let gens =
    [ try_seq_fuse; try_seq_drop; try_tile_elim; try_tile_merge;
      try_tree_balance oracle md ]
  in
  let step plan =
    List.find_map
      (fun gen ->
        match gen plan with
        | Some ps
          when (not ps.ps_gated)
               || seconds ps.ps_plan <= seconds plan *. (1. +. 1e-9) ->
          Some ps
        | _ -> None)
      gens
  in
  let rec loop n plan =
    if n = 0 then plan
    else
      match step plan with
      | Some ps ->
        emit ps;
        loop (n - 1) ps.ps_plan
      | None -> plan
  in
  let plan' = loop 16 plan0 in
  (plan', List.rev !log)

(* --- the optimize driver ----------------------------------------------- *)

type report = {
  r_md : Md_hom.t;
  r_raw_plan : Plan.t;
  r_plan : Plan.t;
  r_raw_seconds : float;
  r_seconds : float;
  r_applied : applied list;
}

let optimize ?(oracle = pure_oracle) (md : Md_hom.t) dev cg sched =
  match Plan.build md dev sched with
  | Error e -> Error e
  | Ok raw_plan -> (
    let md', expr_applied = saturate_outputs md in
    match Plan.build md' dev sched with
    | Error e -> Error e
    | Ok plan0 ->
      let plan', plan_applied = saturate_plan ~oracle md' dev cg plan0 in
      Ok
        { r_md = md';
          r_raw_plan = raw_plan;
          r_plan = plan';
          r_raw_seconds = plan_seconds md dev cg raw_plan;
          r_seconds = plan_seconds md' dev cg plan';
          r_applied = expr_applied @ plan_applied })

(* --- report rendering --------------------------------------------------- *)

(* everything the renderers read, as plain data: the form the optimize
   report takes on the mdhd wire, so local and remote print alike *)
type rule_summary = {
  rs_tier : string;
  rs_rule : string;
  rs_site : string;
  rs_detail : string;
  rs_verified : bool;
  rs_justification : string;
}

type summary = {
  s_raw_digest : string;
  s_digest : string;
  s_raw_point_flops : int;
  s_point_flops : int;
  s_raw_seconds : float;
  s_seconds : float;
  s_applied : rule_summary list;
}

let tier_name = function `Expr -> "expr" | `Plan -> "plan"

let summarize r =
  { s_raw_digest = Plan.digest r.r_raw_plan; s_digest = Plan.digest r.r_plan;
    s_raw_point_flops = r.r_raw_plan.Plan.point_flops;
    s_point_flops = r.r_plan.Plan.point_flops; s_raw_seconds = r.r_raw_seconds;
    s_seconds = r.r_seconds;
    s_applied =
      List.map
        (fun a ->
          { rs_tier = tier_name a.ap_tier; rs_rule = a.ap_rule;
            rs_site = a.ap_site; rs_detail = a.ap_detail;
            rs_verified = (match a.ap_just with Pure _ -> false | Algebra _ -> true);
            rs_justification = justification_to_string a.ap_just })
        r.r_applied }

let improvement s =
  if s.s_raw_seconds > 0.0 then (s.s_raw_seconds -. s.s_seconds) /. s.s_raw_seconds
  else 0.0

let summary_json ~name ~device s =
  let applied =
    List.map
      (fun a ->
        Json.obj
          [ ("tier", Json.quote a.rs_tier);
            ("rule", Json.quote a.rs_rule);
            ("site", Json.quote a.rs_site);
            ("detail", Json.quote a.rs_detail);
            ("kind", Json.quote (if a.rs_verified then "verified" else "pure"));
            ("justification", Json.quote a.rs_justification) ])
      s.s_applied
  in
  Json.obj
    [ ("schema", Json.quote "mdh-optimize/1");
      ("workload", Json.quote name);
      ("device", Json.quote device);
      ("raw_digest", Json.quote s.s_raw_digest);
      ("digest", Json.quote s.s_digest);
      ("point_flops_raw", string_of_int s.s_raw_point_flops);
      ("point_flops", string_of_int s.s_point_flops);
      ("raw_model_seconds", Json.number s.s_raw_seconds);
      ("model_seconds", Json.number s.s_seconds);
      ("improvement", Json.number (improvement s));
      ("n_applied", string_of_int (List.length s.s_applied));
      ("applied", Json.arr applied) ]

let report_json ~name ~device r = summary_json ~name ~device (summarize r)

let pp_summary ~name ~device ppf s =
  Format.fprintf ppf "@[<v>optimize %s on %s@," name device;
  Format.fprintf ppf "raw plan:       digest %s, %d point flops, model %.3e s@,"
    s.s_raw_digest s.s_raw_point_flops s.s_raw_seconds;
  if s.s_applied = [] then Format.fprintf ppf "no rewrites applied@,"
  else
    List.iter
      (fun a ->
        Format.fprintf ppf "[%s] %s @@ %s: %s@,    justification: %s@,"
          a.rs_tier a.rs_rule a.rs_site a.rs_detail a.rs_justification)
      s.s_applied;
  Format.fprintf ppf "saturated plan: digest %s, %d point flops, model %.3e s@,"
    s.s_digest s.s_point_flops s.s_seconds;
  Format.fprintf ppf "cost-model delta: %+.2f%% (%.3e s -> %.3e s)@]"
    (-100.0 *. improvement s)
    s.s_raw_seconds s.s_seconds
