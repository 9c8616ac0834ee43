module Scalar = Mdh_tensor.Scalar
module Dense = Mdh_tensor.Dense
module Shape = Mdh_tensor.Shape
module Expr = Mdh_expr.Expr

type custom_fn = {
  fn_name : string;
  apply : Scalar.value -> Scalar.value -> Scalar.value;
  body : Expr.t option;
  associative : bool;
  commutative : bool;
  identity : Scalar.value option;
  builtin : bool;
}

type t =
  | Cc
  | Pw of custom_fn
  | Ps of custom_fn

let cc = Cc
let pw f = Pw f
let ps f = Ps f

let name = function
  | Cc -> "cc"
  | Pw f -> Printf.sprintf "pw(%s)" f.fn_name
  | Ps f -> Printf.sprintf "ps(%s)" f.fn_name

let pp ppf t = Format.pp_print_string ppf (name t)

let is_reduction = function Cc -> false | Pw _ | Ps _ -> true
let collapses = function Pw _ -> true | Cc | Ps _ -> false
let result_extent t n = if collapses t then 1 else n

let parallelisable = function
  | Cc -> true
  | Pw f | Ps f -> f.associative

let custom_fn_of = function Cc -> None | Pw f | Ps f -> Some f

let builtin fn_name identity apply =
  { fn_name; apply; body = None; associative = true; commutative = true; identity;
    builtin = true }

let add ty =
  let identity = Some (Scalar.zero ty) in
  builtin "add" identity Scalar.add

let mul ty =
  let one =
    match ty with
    | Scalar.Fp32 -> Some (Scalar.f32 1.0)
    | Fp64 -> Some (Scalar.F64 1.0)
    | Int32 -> Some (Scalar.i32 1)
    | Int64 -> Some (Scalar.i64 1)
    | Bool | Char | Record _ -> None
  in
  builtin "mul" one Scalar.mul

let max _ty = builtin "max" None Scalar.max_v
let min _ty = builtin "min" None Scalar.min_v

let custom ~name ?(associative = true) ?(commutative = false) ?identity apply =
  { fn_name = name; apply; body = None; associative; commutative; identity;
    builtin = false }

let of_body ~name ~ty ?associative ?commutative ?identity body =
  let locals = [ ("lhs", ty); ("rhs", ty) ] in
  let env = { Mdh_expr.Typecheck.iter_vars = []; buffer_ty = (fun _ -> None) } in
  (match Mdh_expr.Typecheck.check ~locals env ~expected:ty body with
  | Ok () -> ()
  | Error e ->
    invalid_arg
      (Format.asprintf "Combine.of_body %s: %a" name Mdh_expr.Typecheck.pp_error e));
  let ctx =
    { Mdh_expr.Eval.iter = [];
      read = (fun buf _ -> invalid_arg ("Combine.of_body: read of " ^ buf)) }
  in
  let apply lhs rhs = Mdh_expr.Eval.eval ~locals:[ ("lhs", lhs); ("rhs", rhs) ] ctx body in
  { (custom ~name ?associative ?commutative ?identity apply) with body = Some body }

let key fn =
  match fn.body with
  | Some body -> fn.fn_name ^ " = " ^ Expr.to_string body
  | None -> fn.fn_name

(* bitwise-or reduction over integer elements; declared associative only —
   commutativity is left for the property verifier to discover (MDH112) *)
let bor ty =
  let apply a b =
    match (a, b) with
    | Scalar.I32 x, Scalar.I32 y -> Scalar.I32 (Int32.logor x y)
    | Scalar.I64 x, Scalar.I64 y -> Scalar.I64 (Int64.logor x y)
    | _ -> invalid_arg "Combine.bor: integer values required"
  in
  let identity =
    match ty with
    | Scalar.Int32 -> Some (Scalar.i32 0)
    | Scalar.Int64 -> Some (Scalar.i64 0)
    | Scalar.Fp32 | Scalar.Fp64 | Scalar.Bool | Scalar.Char | Scalar.Record _ -> None
  in
  custom ~name:"bor" ~associative:true ~commutative:false ?identity apply

let with_declared ?associative ?commutative ?identity fn =
  { fn with
    associative = Option.value associative ~default:fn.associative;
    commutative = Option.value commutative ~default:fn.commutative;
    identity = Option.value identity ~default:fn.identity }

let combine_partials t ~dim lhs rhs =
  let rank = Shape.rank (Dense.shape lhs) in
  if dim < 0 || dim >= rank then invalid_arg "Combine.combine_partials: bad dimension";
  match t with
  | Cc -> Dense.concat ~dim lhs rhs
  | Pw f ->
    if (Dense.shape lhs).(dim) <> 1 || (Dense.shape rhs).(dim) <> 1 then
      invalid_arg "Combine.combine_partials: pw operands must have extent 1";
    Dense.map2 f.apply lhs rhs
  | Ps f ->
    (* Listing 17: the rhs partial's elements each absorb the last element of
       the lhs partial along [dim]; then the halves are concatenated. *)
    let last = (Dense.shape lhs).(dim) - 1 in
    let carry = Dense.slice lhs ~dim ~lo:last ~len:1 in
    let shifted =
      Dense.of_fn (Dense.ty rhs) (Dense.shape rhs) (fun idx ->
          let cidx = Array.copy idx in
          cidx.(dim) <- 0;
          f.apply (Dense.get carry cidx) (Dense.get rhs idx))
    in
    Dense.concat ~dim lhs shifted
