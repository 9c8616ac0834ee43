(** Dense multi-dimensional tensors of dynamically-typed scalar values.

    This is the generic value store used by the reference semantics, the
    directive interpreter and the plan walker. Wall-clock benchmarks use
    the specialised float kernels in [Mdh_runtime] instead. *)

type t

val create : Scalar.ty -> Shape.t -> t
(** Allocated with the type's zero value. *)

val of_fn : Scalar.ty -> Shape.t -> (int array -> Scalar.value) -> t

val scalar : Scalar.value -> t
(** Rank-0 tensor holding one value. *)

val ty : t -> Scalar.ty
val shape : t -> Shape.t
val num_elements : t -> int

val get : t -> int array -> Scalar.value
val set : t -> int array -> Scalar.value -> unit

val get_linear : t -> int -> Scalar.value
val set_linear : t -> int -> Scalar.value -> unit

val copy : t -> t

val fill : t -> Scalar.value -> unit

val iteri : t -> (int array -> Scalar.value -> unit) -> unit
(** Row-major order; the index array is reused between calls. *)

val map2 : (Scalar.value -> Scalar.value -> Scalar.value) -> t -> t -> t
(** Element-wise; shapes must agree. *)

val equal : t -> t -> bool
val approx_equal : ?rel:float -> ?abs:float -> t -> t -> bool

val slice : t -> dim:int -> lo:int -> len:int -> t
(** Contiguous sub-tensor along [dim] (copying). *)

val concat : dim:int -> t -> t -> t
(** Concatenate along [dim]; all other extents must agree. *)

val scan : dim:int -> (Scalar.value -> Scalar.value -> Scalar.value) -> t -> t
(** Inclusive prefix scan along [dim]. *)

val reduce : dim:int -> (Scalar.value -> Scalar.value -> Scalar.value) -> t -> t
(** Fold along [dim], collapsing its extent to 1 (left fold in index order). *)

val pp : Format.formatter -> t -> unit
(** Debug rendering; intended for small tensors. *)
