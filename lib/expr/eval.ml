module Scalar = Mdh_tensor.Scalar

type ctx = {
  iter : (string * int) list;
  read : string -> int array -> Scalar.value;
}

exception Eval_error of string

let err fmt = Format.kasprintf (fun message -> raise (Eval_error message)) fmt

let as_bool = function
  | Scalar.B b -> b
  | v -> err "expected bool, got %s" (Scalar.value_to_string v)

let cast_to ty v =
  match ty with
  | Scalar.Fp32 -> Scalar.f32 (Scalar.to_float v)
  | Fp64 -> Scalar.F64 (Scalar.to_float v)
  | Int32 -> (
    match v with
    | Scalar.F32 x | F64 x -> Scalar.I32 (Int32.of_float x)
    | I32 _ -> v
    | I64 x -> Scalar.I32 (Int64.to_int32 x)
    | B _ | C _ -> Scalar.i32 (Scalar.to_int v)
    | R _ -> err "cannot cast record value")
  | Int64 -> (
    match v with
    | Scalar.F32 x | F64 x -> Scalar.I64 (Int64.of_float x)
    | I32 x -> Scalar.I64 (Int64.of_int32 x)
    | I64 _ -> v
    | B _ | C _ -> Scalar.i64 (Scalar.to_int v)
    | R _ -> err "cannot cast record value")
  | Bool | Char | Record _ -> err "unsupported cast target %s" (Scalar.ty_to_string ty)

let rec eval_with locals ctx e =
  match e with
  | Expr.Const v -> v
  | Idx name -> (
    match List.assoc_opt name ctx.iter with
    | Some i -> Scalar.i32 i
    | None -> err "unbound iteration variable %S" name)
  | Var name -> (
    match List.assoc_opt name locals with
    | Some v -> v
    | None -> err "unbound local variable %S" name)
  | Read (buf, idxs) ->
    ctx.read buf (Array.of_list (List.map (eval_index_with locals ctx) idxs))
  | Binop (op, a, b) -> (
    match op with
    | And ->
      (* short-circuit *)
      if as_bool (eval_with locals ctx a) then eval_with locals ctx b else Scalar.B false
    | Or ->
      if as_bool (eval_with locals ctx a) then Scalar.B true else eval_with locals ctx b
    | _ ->
      let va = eval_with locals ctx a in
      let vb = eval_with locals ctx b in
      apply_binop op va vb)
  | Unop (Neg, a) -> Scalar.neg (eval_with locals ctx a)
  | Unop (Not, a) -> Scalar.B (not (as_bool (eval_with locals ctx a)))
  | If (c, a, b) ->
    if as_bool (eval_with locals ctx c) then eval_with locals ctx a
    else eval_with locals ctx b
  | Let (name, e1, e2) ->
    let v1 = eval_with locals ctx e1 in
    eval_with ((name, v1) :: locals) ctx e2
  | Field (a, name) -> Scalar.field (eval_with locals ctx a) name
  | MkRecord fields ->
    Scalar.R (List.map (fun (name, fe) -> (name, eval_with locals ctx fe)) fields)
  | Cast (ty, a) -> cast_to ty (eval_with locals ctx a)

and apply_binop op va vb =
  match op with
  | Expr.Add -> Scalar.add va vb
  | Sub -> Scalar.sub va vb
  | Mul -> Scalar.mul va vb
  | Div -> Scalar.div va vb
  | Min -> Scalar.min_v va vb
  | Max -> Scalar.max_v va vb
  | Eq -> Scalar.B (Scalar.equal va vb)
  | Ne -> Scalar.B (not (Scalar.equal va vb))
  | Lt -> Scalar.B (Scalar.compare_num va vb < 0)
  | Le -> Scalar.B (Scalar.compare_num va vb <= 0)
  | Gt -> Scalar.B (Scalar.compare_num va vb > 0)
  | Ge -> Scalar.B (Scalar.compare_num va vb >= 0)
  | And | Or -> err "internal: And/Or handled by eval"

and eval_index_with locals ctx e =
  match eval_with locals ctx e with
  | Scalar.I32 x -> Int32.to_int x
  | I64 x -> Int64.to_int x
  | v -> err "index expression evaluated to non-integer %s" (Scalar.value_to_string v)

let eval ?(locals = []) ctx e = eval_with locals ctx e
let eval_index ctx e = eval_index_with [] ctx e
let eval_indices ctx idxs = Array.of_list (List.map (eval_index ctx) idxs)
