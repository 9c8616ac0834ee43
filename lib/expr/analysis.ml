module Index_fn = Mdh_tensor.Index_fn
module Scalar = Mdh_tensor.Scalar

(* Affine form: coefficients per iteration dim + constant, or failure. *)
type affine = { coeffs : int array; offset : int }

let rec affine_of_expr ~dims e : affine option =
  let arity = Array.length dims in
  let const offset = Some { coeffs = Array.make arity 0; offset } in
  match e with
  | Expr.Const (Scalar.I32 x) -> const (Int32.to_int x)
  | Const (Scalar.I64 x) -> const (Int64.to_int x)
  | Idx name -> (
    match Array.find_index (String.equal name) dims with
    | Some d ->
      let coeffs = Array.make arity 0 in
      coeffs.(d) <- 1;
      Some { coeffs; offset = 0 }
    | None -> None)
  | Binop (Add, a, b) -> combine ~dims ( + ) a b
  | Binop (Sub, a, b) -> combine ~dims ( - ) a b
  | Binop (Mul, a, b) -> (
    match (affine_of_expr ~dims a, affine_of_expr ~dims b) with
    | Some fa, Some fb ->
      let is_const f = Array.for_all (( = ) 0) f.coeffs in
      if is_const fa then
        Some { coeffs = Array.map (fun c -> c * fa.offset) fb.coeffs;
               offset = fa.offset * fb.offset }
      else if is_const fb then
        Some { coeffs = Array.map (fun c -> c * fb.offset) fa.coeffs;
               offset = fa.offset * fb.offset }
      else None
    | _ -> None)
  | Unop (Neg, a) -> (
    match affine_of_expr ~dims a with
    | Some f -> Some { coeffs = Array.map Int.neg f.coeffs; offset = -f.offset }
    | None -> None)
  | _ -> None

and combine ~dims op a b =
  match (affine_of_expr ~dims a, affine_of_expr ~dims b) with
  | Some fa, Some fb ->
    Some { coeffs = Array.map2 op fa.coeffs fb.coeffs; offset = op fa.offset fb.offset }
  | _ -> None

let affine_of_index_exprs ~dims exprs =
  let rec loop acc = function
    | [] ->
      Some
        (Index_fn.affine ~arity:(Array.length dims)
           (List.rev_map
              (fun { coeffs; offset } -> Index_fn.coord ~coeffs ~offset)
              acc))
    | e :: rest -> (
      match affine_of_expr ~dims e with
      | Some f -> loop (f :: acc) rest
      | None -> None)
  in
  loop [] exprs

let index_fn_of_exprs ~dims exprs =
  match affine_of_index_exprs ~dims exprs with
  | Some fn -> fn
  | None ->
    let arity = Array.length dims in
    let out_rank = List.length exprs in
    Index_fn.opaque ~arity ~out_rank (fun point ->
        let iter = List.init arity (fun d -> (dims.(d), point.(d))) in
        let ctx =
          { Eval.iter;
            read = (fun buf _ -> raise (Eval.Eval_error ("read of " ^ buf ^ " in index")))
          }
        in
        Eval.eval_indices ctx exprs)

let reads e =
  let acc = ref [] in
  Expr.iter_reads e (fun buf idxs -> acc := (buf, idxs) :: !acc);
  List.rev !acc

let rec flops = function
  | Expr.If (c, a, b) -> 1 + flops c + max (flops a) (flops b)
  | e ->
    let own = match e with Expr.Binop _ | Unop _ -> 1 | _ -> 0 in
    List.fold_left (fun acc c -> acc + flops c) own (Expr.children e)

let rec uses_var name = function
  | Expr.Var v -> String.equal v name
  | Let (n, a, b) -> uses_var name a || ((not (String.equal n name)) && uses_var name b)
  | e -> List.exists (uses_var name) (Expr.children e)

let rec reads_buffer tainted = function
  | Expr.Read _ -> true
  | Var name -> List.mem name tainted
  | e -> List.exists (reads_buffer tainted) (Expr.children e)

let contains_data_dependent_branch e =
  let rec go tainted = function
    | Expr.If (c, a, b) -> reads_buffer tainted c || go tainted a || go tainted b
    | Let (name, e1, e2) ->
      let tainted' = if reads_buffer tainted e1 then name :: tainted else tainted in
      go tainted e1 || go tainted' e2
    | e -> List.exists (go tainted) (Expr.children e)
  in
  go [] e
