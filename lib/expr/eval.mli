(** Big-step evaluation of scalar-function expressions at one iteration
    point. *)

type ctx = {
  iter : (string * int) list;  (** iteration variable bindings *)
  read : string -> int array -> Mdh_tensor.Scalar.value;
      (** buffer element access; raises on unknown buffer / out of bounds *)
}

exception Eval_error of string

val eval :
  ?locals:(string * Mdh_tensor.Scalar.value) list ->
  ctx ->
  Expr.t ->
  Mdh_tensor.Scalar.value
(** [locals] (default none) binds free [Var]s, e.g. a combine operator's
    [lhs] and [rhs]. Raises [Eval_error] on unbound variables or dynamic
    type errors (a type-checked expression never raises). *)

val eval_index : ctx -> Expr.t -> int
(** Evaluate an index expression to an int. *)

val eval_indices : ctx -> Expr.t list -> int array
