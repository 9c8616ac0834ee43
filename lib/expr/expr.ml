module Scalar = Mdh_tensor.Scalar

type binop =
  | Add | Sub | Mul | Div
  | Min | Max
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

type t =
  | Const of Scalar.value
  | Idx of string
  | Var of string
  | Read of string * t list
  | Binop of binop * t * t
  | Unop of unop * t
  | If of t * t * t
  | Let of string * t * t
  | Field of t * string
  | MkRecord of (string * t) list
  | Cast of Mdh_tensor.Scalar.ty * t

(* Child traversal. Defined before the operator constructors below, which
   shadow [||], [&&], [=] and friends. *)

let children = function
  | Const _ | Idx _ | Var _ -> []
  | Read (_, idxs) -> idxs
  | Binop (_, a, b) | Let (_, a, b) -> [ a; b ]
  | Unop (_, a) | Field (a, _) | Cast (_, a) -> [ a ]
  | If (c, a, b) -> [ c; a; b ]
  | MkRecord fields -> List.map snd fields

let map_children f e =
  match e with
  | Const _ | Idx _ | Var _ -> e
  | Read (buf, idxs) -> Read (buf, List.map f idxs)
  | Binop (op, a, b) ->
    let b = f b in
    Binop (op, f a, b)
  | Unop (op, a) -> Unop (op, f a)
  | If (c, a, b) ->
    let b = f b in
    let a = f a in
    If (f c, a, b)
  | Let (name, v, body) ->
    let body = f body in
    Let (name, f v, body)
  | Field (a, name) -> Field (f a, name)
  | MkRecord fields -> MkRecord (List.map (fun (name, fe) -> (name, f fe)) fields)
  | Cast (ty, a) -> Cast (ty, f a)

let rec iter f e =
  f e;
  List.iter (iter f) (children e)

let iter_reads e f = iter (function Read (buf, idxs) -> f buf idxs | _ -> ()) e

let free_idx_vars e =
  let order = ref [] in
  iter
    (function
      | Idx name when not (List.mem name !order) -> order := name :: !order
      | _ -> ())
    e;
  List.rev !order

let binop_symbol = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
  | Min -> "min" | Max -> "max"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "&&" | Or -> "||"

let pp_binop ppf op = Format.pp_print_string ppf (binop_symbol op)

let rec pp ppf = function
  | Const v -> Scalar.pp_value ppf v
  | Idx name | Var name -> Format.pp_print_string ppf name
  | Read (buf, idxs) ->
    Format.fprintf ppf "%s[%a]" buf
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") pp)
      idxs
  | Binop ((Min | Max) as op, a, b) ->
    Format.fprintf ppf "%s(%a, %a)" (binop_symbol op) pp a pp b
  | Binop (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (binop_symbol op) pp b
  | Unop (Neg, e) -> Format.fprintf ppf "(-%a)" pp e
  | Unop (Not, e) -> Format.fprintf ppf "(!%a)" pp e
  | If (c, a, b) -> Format.fprintf ppf "(if %a then %a else %a)" pp c pp a pp b
  | Let (name, e, body) -> Format.fprintf ppf "(let %s = %a in %a)" name pp e pp body
  | Field (e, name) -> Format.fprintf ppf "%a.%s" pp e name
  | MkRecord fields ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf (name, e) -> Format.fprintf ppf "%s=%a" name pp e))
      fields
  | Cast (ty, e) -> Format.fprintf ppf "(%a)%a" Scalar.pp_ty ty pp e

let to_string e = Format.asprintf "%a" pp e

let idx name = Idx name
let var name = Var name
let int n = Const (Scalar.i32 n)
let f32 x = Const (Scalar.f32 x)
let f64 x = Const (Scalar.f64 x)
let read buf idxs = Read (buf, idxs)
let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let ( = ) a b = Binop (Eq, a, b)
let ( <> ) a b = Binop (Ne, a, b)
let ( < ) a b = Binop (Lt, a, b)
let ( <= ) a b = Binop (Le, a, b)
let ( > ) a b = Binop (Gt, a, b)
let ( >= ) a b = Binop (Ge, a, b)
let ( && ) a b = Binop (And, a, b)
let ( || ) a b = Binop (Or, a, b)
let if_ c a b = If (c, a, b)
let let_ name e body = Let (name, e, body)
let field e name = Field (e, name)
let cast ty e = Cast (ty, e)
