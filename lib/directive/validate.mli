(** Static validation and elaboration of MDH directives (Section 4.2): the
    one implementation of the directive rules MDH001–MDH015. The fail-fast
    callers ({!run}, [Transform.to_md_hom]) and the accumulating analyzer
    [Mdh_analysis.Analyze] both read the same error list, so they cannot
    disagree.

    A directive is well-formed when:
    - the loop nest is perfect (no statements or sequencing between loops);
    - loop variables are distinct and extents positive;
    - exactly one combine operator is given per loop dimension, and [pw]
      and [ps] operators are not mixed in one computation (their nesting
      does not satisfy the interchange law the MDH decomposition relies
      on — reducing then scanning differs from scanning then reducing);
    - every assignment targets a declared output buffer, each output buffer
      is assigned exactly once per iteration point, and no statement reads an
      output buffer or writes an input buffer (the body is a pure scalar
      function computing a single point; reductions are expressed only
      through combine operators);
    - all expressions type-check; index expressions are integral;
    - buffer shapes are consistent: inferred access bounds must fit declared
      shapes, accesses must not reach negative indices, and buffers with
      non-affine (opaque) accesses must declare shapes (footnote 7);
    - every output access is affine, independent of [pw]-collapsed
      dimensions, and injective on the remaining subspace, so combined
      partial results occupy disjoint cells. *)

module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Index_fn = Mdh_tensor.Index_fn

type error_kind =
  | Imperfect_nest
  | Duplicate_loop_var of string
  | Nonpositive_extent of string
  | Combine_op_arity of { dims : int; ops : int }
  | Mixed_reduction_kinds
  | Duplicate_buffer of string
  | Unknown_buffer of string
  | Assign_to_input of string
  | Read_of_output of string
  | Multiple_assignment of string
  | Missing_assignment of string
  | Type_error of string
  | Shape_error of string
  | Opaque_access_needs_shape of string
  | Invalid_out_view of string

(** Where in the directive a violation sits; the analyzer resolves it to a
    source span when the directive came from the pragma frontend. *)
type site =
  | Nest  (** the directive as a whole *)
  | Loop of int  (** the i-th loop of the nest, outermost first *)
  | Combine_ops  (** the [combine_ops] clause *)
  | Buffer of string  (** the named buffer's (first) declaration *)
  | Stmt of int  (** the i-th statement of the innermost body *)

type error = {
  kind : error_kind;
  message : string;
  subject : string option;
      (** the buffer or loop variable the violation is about, when there is
          one *)
  site : site;
}

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

(** Elaborated directive: everything the transformation to the MDH DSL needs,
    with local [let] bindings folded into the assigned values and buffer
    shapes resolved. *)

type eout = {
  eo_name : string;
  eo_ty : Scalar.ty;
  eo_shape : Shape.t;
  eo_indices : Mdh_expr.Expr.t list;
  eo_fn : Index_fn.t;
  eo_value : Mdh_expr.Expr.t;
}

type einp = {
  ei_name : string;
  ei_ty : Scalar.ty;
  ei_shape : Shape.t;
  ei_accesses : (Mdh_expr.Expr.t list * Index_fn.t) list;
      (** distinct textual accesses — the #ACC of Listing 14 *)
}

type elab = {
  el_dims : string array;
  el_sizes : Shape.t;
  el_combine_ops : Mdh_combine.Combine.t array;
  el_outs : eout list;
  el_inps : einp list;
}

val elaborate : Directive.t -> (elab, error list) result
(** Full validation. On failure, every violation in pass order:
    + structure — perfect nest, loop variables (one error per duplicated
      variable, at its first occurrence), extents, [combine_ops] arity,
      [pw]/[ps] mixing (MDH001–MDH005);
    + declarations — one error per duplicated buffer (MDH006);
    + the body, statement by statement — within a statement the first
      failing check wins, then the walk continues (MDH007–MDH012);
    + shapes and output views, only when nothing above failed — every
      breaking dimension is named, and a non-injective output access comes
      with a concrete pair of colliding iteration points (MDH013–MDH015).

    The list is never empty. *)

val run : Directive.t -> (unit, error) result
(** Fail-fast validation: the first violation {!elaborate} reports. *)

val error_code : error_kind -> string
(** The stable diagnostic code ([MDH001]..[MDH015]) for an error kind, as
    listed in [Mdh_analysis.Diagnostic.code_table] and docs/DIAGNOSTICS.md. *)
