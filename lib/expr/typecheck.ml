module Scalar = Mdh_tensor.Scalar

type env = {
  iter_vars : string list;
  buffer_ty : string -> Scalar.ty option;
}

type error = { expr : Expr.t; message : string }

let pp_error ppf { expr; message } =
  Format.fprintf ppf "type error in `%a`: %s" Expr.pp expr message

let error expr fmt = Format.kasprintf (fun message -> Error { expr; message }) fmt

let ( let* ) = Result.bind

let is_numeric = function
  | Scalar.Fp32 | Fp64 | Int32 | Int64 -> true
  | Bool | Char | Record _ -> false

let is_integral = function
  | Scalar.Int32 | Int64 -> true
  | Fp32 | Fp64 | Bool | Char | Record _ -> false

let rec infer_with locals env e =
  match e with
  | Expr.Const v -> Ok (Scalar.type_of_value v)
  | Idx name ->
    if List.mem name env.iter_vars then Ok Scalar.Int32
    else error e "unknown iteration variable %S" name
  | Var name -> (
    match List.assoc_opt name locals with
    | Some ty -> Ok ty
    | None -> error e "unbound local variable %S" name)
  | Read (buf, idxs) -> (
    match env.buffer_ty buf with
    | None -> error e "unknown buffer %S" buf
    | Some ty ->
      let* () = check_indices locals env e idxs in
      Ok ty)
  | Binop ((Add | Sub | Mul | Div | Min | Max) as op, a, b) ->
    let* ta = infer_with locals env a in
    let* tb = infer_with locals env b in
    if not (Scalar.equal_ty ta tb) then
      error e "operands of %a have different types (%a vs %a)" Expr.pp_binop op
        Scalar.pp_ty ta Scalar.pp_ty tb
    else if not (is_numeric ta) then
      error e "operands of %a must be numeric, got %a" Expr.pp_binop op Scalar.pp_ty ta
    else Ok ta
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge) as op, a, b) ->
    let* ta = infer_with locals env a in
    let* tb = infer_with locals env b in
    if not (Scalar.equal_ty ta tb) then
      error e "operands of %a have different types (%a vs %a)" Expr.pp_binop op
        Scalar.pp_ty ta Scalar.pp_ty tb
    else Ok Scalar.Bool
  | Binop ((And | Or) as op, a, b) ->
    let* ta = infer_with locals env a in
    let* tb = infer_with locals env b in
    if Scalar.equal_ty ta Scalar.Bool && Scalar.equal_ty tb Scalar.Bool then Ok Scalar.Bool
    else error e "operands of %a must be bool" Expr.pp_binop op
  | Unop (Neg, a) ->
    let* ta = infer_with locals env a in
    if is_numeric ta then Ok ta else error e "operand of unary - must be numeric"
  | Unop (Not, a) ->
    let* ta = infer_with locals env a in
    if Scalar.equal_ty ta Scalar.Bool then Ok Scalar.Bool
    else error e "operand of ! must be bool"
  | If (c, a, b) ->
    let* tc = infer_with locals env c in
    if not (Scalar.equal_ty tc Scalar.Bool) then error e "condition must be bool"
    else
      let* ta = infer_with locals env a in
      let* tb = infer_with locals env b in
      if Scalar.equal_ty ta tb then Ok ta
      else
        error e "branches have different types (%a vs %a)" Scalar.pp_ty ta Scalar.pp_ty tb
  | Let (name, e1, e2) ->
    let* t1 = infer_with locals env e1 in
    infer_with ((name, t1) :: locals) env e2
  | Field (a, name) -> (
    let* ta = infer_with locals env a in
    match ta with
    | Record fields -> (
      match List.assoc_opt name fields with
      | Some ty -> Ok ty
      | None -> error e "record has no field %S" name)
    | _ -> error e "field access on non-record type %a" Scalar.pp_ty ta)
  | MkRecord fields ->
    let* tys =
      Mdh_support.Util.list_result_all
        (List.map
           (fun (name, fe) ->
             Result.map (fun ty -> (name, ty)) (infer_with locals env fe))
           fields)
    in
    Ok (Scalar.Record tys)
  | Cast (ty, a) ->
    let* ta = infer_with locals env a in
    if is_numeric ta && is_numeric ty then Ok ty
    else error e "cast requires numeric source and target"

and check_indices locals env ctx idxs =
  let rec loop = function
    | [] -> Ok ()
    | i :: rest ->
      let* ti = infer_with locals env i in
      if is_integral ti then loop rest
      else error ctx "index expression `%a` is not integral (%a)" Expr.pp i Scalar.pp_ty ti
  in
  loop idxs

let infer ?(locals = []) env e = infer_with locals env e

let check ?locals env ~expected e =
  let* ty = infer ?locals env e in
  if Scalar.equal_ty ty expected then Ok ()
  else
    error e "expected type %a but expression has type %a" Scalar.pp_ty expected
      Scalar.pp_ty ty
