(** Dense multi-dimensional tensors of dynamically-typed scalar values.

    A tensor has one of two stores, chosen by its type:
    - [fp32] and [fp64] elements live unboxed in one row-major
      [float array], each the payload of its [F32]/[F64] value;
    - every other type (integers, [bool], [char], records) keeps an array
      of boxed {!Scalar.value}s.

    [get] rebuilds an element's value bit for bit, and [set] on a float
    store accepts only the tensor's own constructor. An fp32 store holds
    only doubles that fp32 can represent exactly: {!Scalar.f32} rounds
    the payload of every [F32] it makes, and code that writes through
    {!floats} rounds each value with {!Scalar.round_f32}.

    The reference semantics and the directive interpreter read and
    write elements through [get]/[set]. The fast backends
    ([Mdh_runtime.Specializer] and [Mdh_codegen.Cc]) take the float store
    itself from {!floats}: they read inputs and write outputs in place,
    with no per-element copy. *)

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
(** Raises [Invalid_argument] when the value's constructor does not match
    a float store: only [F32] goes into an fp32 tensor and only [F64] into
    an fp64 one. Boxed stores take any value. *)

val get_linear : t -> int -> Scalar.value
val set_linear : t -> int -> Scalar.value -> unit
(** Row-major offset; the same contract as [get]/[set]. *)

val floats : t -> float array option
(** The float store of an fp32 or fp64 tensor: the array itself, not a
    copy, so it aliases the tensor and a write through it is visible to
    [get]. [None] for every other type. A write into an fp32 store must
    round with {!Scalar.round_f32}. *)

val record_field : t -> string -> float array
(** [record_field t name] unpacks field [name] of every element of the
    record tensor [t], row-major, into a fresh float array: the per-field
    store [Mdh_runtime.Specializer] reads a record input from. An int32,
    fp32 or fp64 field converts exactly, with no boxing per element.
    Raises [Invalid_argument] for any other tensor or field type (an
    int64 field has no exact home in a float store), and for an element
    that lacks the field or holds it under another type's constructor. *)

val set_record : t -> int -> float array array -> int -> unit
(** [set_record t i fields j] packs element [i] (row-major) of the record
    tensor [t] from per-field stores: field [k] of the record type takes
    [fields.(k).(j)], rounded for fp32, truncated for int32 and int64,
    non-zero for bool. The inverse of {!record_field}, one element at a
    time, for write-back. Raises [Invalid_argument] for any other tensor
    or a char or record field. *)

val copy : t -> t

val fill : t -> Scalar.value -> unit

val iteri : t -> (int array -> Scalar.value -> unit) -> unit
(** Row-major order; the index array is reused between calls. *)

val map2 : (Scalar.value -> Scalar.value -> Scalar.value) -> t -> t -> t
(** Element-wise; shapes must agree. The result has the first tensor's
    type, so [f] must return values that [set] accepts for it. *)

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
