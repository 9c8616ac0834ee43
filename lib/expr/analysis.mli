(** Static analyses of scalar functions used by the directive-to-DSL
    transformation (Section 4.3, Figures 1 and 2) and by the machine cost
    model: affine extraction of index expressions, access collection, and
    operation counting. *)

val affine_of_index_exprs :
  dims:string array -> Expr.t list -> Mdh_tensor.Index_fn.t option
(** Extract a symbolic affine index function from index expressions over the
    iteration variables [dims] (e.g. [[i; 2*p + r]]). [None] when any
    coordinate is not affine (contains reads, conditionals, division, ...). *)

val index_fn_of_exprs :
  dims:string array -> Expr.t list -> Mdh_tensor.Index_fn.t
(** Like {!affine_of_index_exprs} but falls back to an opaque index function
    backed by the evaluator. *)

val reads : Expr.t -> (string * Expr.t list) list
(** All buffer accesses in the expression, in syntactic order, with
    duplicates preserved (one entry per textual access — the #ACC counts of
    Listing 14). *)

val flops : Expr.t -> int
(** Arithmetic/comparison operation count of one evaluation: worst case over
    conditional branches. *)

val uses_var : string -> Expr.t -> bool
(** A free [Var] occurrence of the name exists (respects [Let] shadowing). *)

val contains_data_dependent_branch : Expr.t -> bool
(** True when an [If] condition reads a buffer element (directly or through
    a local binding) — the pattern that makes Pluto's polyhedral extraction
    fail on PRL (Section 5.2). *)
