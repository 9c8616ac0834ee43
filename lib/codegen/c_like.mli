(** Shared C-family emission: types, expressions and helpers used by both
    the CUDA and OpenCL backends.

    The MDH pipeline's deliverable is generated source — "CUDA for GPUs and
    OpenCL for CPUs" (Section 3). The emitters translate a scheduled
    computation into kernel source with the schedule's decisions visible in
    the code: cache-tiled sequential loops, the parallel concatenation
    subspace decomposed from the hardware index, and (when scheduled) a
    tree reduction over the reduction dimension.

    Record element types become C structs; built-in customising functions
    become operators; user-defined customising functions (which exist as
    OCaml closures) are emitted as calls to a combiner the host must
    supply, with the operator's name preserved. *)

type ctx

val prepare : Mdh_core.Md_hom.t -> ctx
(** Collect record types and buffer shapes/types of a computation. *)

val struct_defs : ctx -> string
(** Struct definitions for the record element types (possibly empty). *)

val c_type : ctx -> Mdh_tensor.Scalar.ty -> string

type emitted = {
  decls : string list;  (** temporary declarations, in order *)
  expr : string;  (** the final C expression *)
}

val emit_expr :
  ctx -> fresh:(unit -> string) -> index_of:(string -> string) ->
  Mdh_expr.Expr.t -> emitted
(** Translate a scalar-function expression, first simplified by the
    rewriter's tier-1 rules ({!Mdh_rewrite.Rewrite.simplify_expr}). That
    simplification introduces no [let]s (no CSE), because callers drop
    [decls] for index expressions. Buffer reads become row-major
    linearised accesses, [let] bindings become typed [const] declarations,
    conditionals become ternaries. [index_of] renders an iteration variable
    (e.g. a tile-local name, or [0] for a collapsed dimension). Raises
    [Invalid_argument] on expressions that do not type-check. *)

val linearize : string -> Mdh_tensor.Shape.t -> string list -> string
(** [linearize "M" [|r;c|] ["i"; "k"]] is ["M[(i) * c + (k)]"]. *)

val combine_exprs :
  Mdh_combine.Combine.custom_fn -> string -> string -> string
(** C expression combining two values: built-in operators inline
    ([(a + b)], [mdh_min(a, b)], ...); custom operators call
    [mdh_combine_<name>(a, b)]. *)

val custom_combiner_note : Mdh_combine.Combine.custom_fn -> string option
(** A comment/prototype line for non-builtin customising functions. *)

val min_max_prelude : string
(** Definitions of the [mdh_min]/[mdh_max] helpers. *)

val buffer_param : ctx -> ?const:bool -> string -> Mdh_tensor.Scalar.ty -> string
(** Render a kernel pointer parameter, e.g. ["const float *M"]. *)

val indent : int -> string -> string
(** Indent every non-empty line by [2 * n] spaces. *)
