(** The pure scalar-function language [SF] of the MDH directive
    (Listing 14, Section 4.2): expressions over iteration indices, buffer
    element reads, local bindings, conditionals and record fields. The
    language is pure by construction — reads are the only interaction with
    buffers and there is no assignment form — which discharges the paper's
    requirement that the loop body "consists of an arbitrary but pure scalar
    function". *)

type binop =
  | Add | Sub | Mul | Div
  | Min | Max
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or

type unop = Neg | Not

type t =
  | Const of Mdh_tensor.Scalar.value
  | Idx of string  (** iteration variable, e.g. ["i"] *)
  | Var of string  (** local binding introduced by [Let] *)
  | Read of string * t list  (** buffer element access: name, index exprs *)
  | Binop of binop * t * t
  | Unop of unop * t
  | If of t * t * t
  | Let of string * t * t
  | Field of t * string  (** record field projection *)
  | MkRecord of (string * t) list
  | Cast of Mdh_tensor.Scalar.ty * t  (** numeric conversion *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val pp_binop : Format.formatter -> binop -> unit

(* Convenient constructors for embedded use (see examples/). *)

val idx : string -> t
val var : string -> t
val int : int -> t
val f32 : float -> t
val f64 : float -> t
val read : string -> t list -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( = ) : t -> t -> t
val ( <> ) : t -> t -> t
val ( < ) : t -> t -> t
val ( <= ) : t -> t -> t
val ( > ) : t -> t -> t
val ( >= ) : t -> t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val if_ : t -> t -> t -> t
val let_ : string -> t -> t -> t
val field : t -> string -> t
val cast : Mdh_tensor.Scalar.ty -> t -> t

(** {1 Traversal}

    Structural recursions over [t] go through {!children} or
    {!map_children}. Only the printer, the evaluator, the type checker and
    the C and specializer backends, which give each constructor its own
    meaning, match on every constructor ([scripts/check.sh] pins this). *)

val children : t -> t list
(** The immediate subexpressions in evaluation order: [Read] indices and
    [MkRecord] fields first to last, [Binop] operands left then right, the
    [If] condition then its branches, the [Let] value then its body. Leaves
    ([Const], [Idx], [Var]) have none. [Let] scoping is not reflected:
    analyses that care about binders match [Let] first. *)

val map_children : (t -> t) -> t -> t
(** [e] with every immediate child [c] replaced by [f c]; [f] is applied
    once per child. Lists ([Read] indices, [MkRecord] fields) are mapped
    first to last, the fixed operands of [Binop], [If] and [Let] last to
    first. The rewriter's provenance log records rules in this order. *)

val iter : (t -> unit) -> t -> unit
(** Pre-order visit of the node and all its descendants, children in
    {!children} order. *)

val iter_reads : t -> (string -> t list -> unit) -> unit
(** Visit every [Read] node (including reads nested in index expressions),
    in pre-order — the syntactic order {!Analysis.reads} reports. *)

val free_idx_vars : t -> string list
(** Iteration variables referenced, in first-use (pre-order) order. *)
