(** The MDH high-level program representation (Section 3, Listing 7):

    {v out_view ∘ md_hom(f, (co_1, ..., co_D)) ∘ inp_view v}

    A value of type {!t} is the target of the directive-to-DSL
    transformation (Section 4.3) and the input of the lowering pipeline.

    The iteration space is a [D]-dimensional box. The scalar function [f] is
    represented by the per-output value expressions (pure, reading input
    buffer elements through the input views). Each dimension carries a
    combine operator. *)

module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Index_fn = Mdh_tensor.Index_fn

type access = {
  fn : Index_fn.t;  (** symbolic index function (affine when extractable) *)
  exprs : Mdh_expr.Expr.t list;  (** the original index expressions *)
}

type input = {
  inp_name : string;
  inp_ty : Scalar.ty;
  inp_shape : Shape.t;  (** declared, or inferred from accesses (footnote 7) *)
  accesses : access list;  (** #ACC accesses of this buffer (inp_view) *)
}

type output = {
  out_name : string;
  out_ty : Scalar.ty;
  out_shape : Shape.t;
  out_access : access;  (** out_view entry for this buffer *)
  value : Mdh_expr.Expr.t;  (** scalar-function component for this output *)
}

type t = {
  hom_name : string;
  dims : string array;  (** iteration variable names, outermost first *)
  sizes : Shape.t;  (** iteration-space extents *)
  combine_ops : Mdh_combine.Combine.t array;  (** one per dimension *)
  inputs : input list;
  outputs : output list;
}

val rank : t -> int

val reduction_dims : t -> int list
(** Dimensions whose combine operator is [pw] or [ps]. *)

val cc_dims : t -> int list

val result_shape : t -> Shape.t
(** Shape of the combined result tensor over the iteration space: extent 1
    on [pw] dimensions, full extent otherwise. *)

val find_input : t -> string -> input option

val total_points : t -> int

val flops_per_point : t -> int
(** Operation count of one scalar-function evaluation (all outputs). *)

val bytes_read_per_point : t -> int
(** Bytes of input elements touched by one evaluation (one per textual
    access). *)

val bytes_written : t -> int
(** Total bytes of all output buffers. *)

val input_bytes : t -> int

(** Characteristics of Figure 3, derived from the representation. *)
type characteristics = {
  iter_space_rank : int;
  n_reduction_dims : int;
  injective_accesses : bool option;
      (** [Some true] when every input access is injective on the iteration
          space ("Inj." in Figure 3); [None] when undecidable (opaque index
          functions). *)
  n_inputs : int;
  n_outputs : int;
}

val characteristics : t -> characteristics

val pp : Format.formatter -> t -> unit
