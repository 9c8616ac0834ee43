(** Static typing of scalar-function expressions.

    Iteration variables have type [Int32]; index expressions must be
    integral; arithmetic requires both operands of the same numeric type;
    [And]/[Or] require [Bool]; comparisons yield [Bool]. *)

type env = {
  iter_vars : string list;  (** iteration variable names in scope *)
  buffer_ty : string -> Mdh_tensor.Scalar.ty option;
      (** element type of a buffer, or [None] if unknown *)
}

type error = { expr : Expr.t; message : string }

val pp_error : Format.formatter -> error -> unit

val infer :
  ?locals:(string * Mdh_tensor.Scalar.ty) list ->
  env ->
  Expr.t ->
  (Mdh_tensor.Scalar.ty, error) result
(** Type of an expression whose free [Var]s are [Let]-bound or among
    [locals] (default none), e.g. a combine operator's [lhs] and [rhs]. *)

val check :
  ?locals:(string * Mdh_tensor.Scalar.ty) list ->
  env ->
  expected:Mdh_tensor.Scalar.ty ->
  Expr.t ->
  (unit, error) result
