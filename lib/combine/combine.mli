(** Combine operators (the [CO] nonterminal of Listings 7 and 14; the paper's
    Appendix A gives reference implementations).

    Every loop dimension of an MDH computation is associated with one combine
    operator, which states how partial results computed over sub-ranges of
    that dimension are recombined:

    - [cc] — concatenation: partial results occupy disjoint index ranges and
      are juxtaposed. Dimensions combined with [cc] are trivially parallel.
    - [pw f] — point-wise reduction with customising function [f]: the
      dimension collapses to a single element ([index_set_function I = {0}]
      in Listing 16). Parallelisable by tree combination when [f] is
      associative.
    - [ps f] — prefix sum with customising function [f]: the dimension keeps
      its extent; element [i] holds the fold of elements [0..i]
      (Listing 17). Parallelisable with a two-phase scan.

    Customising functions carry algebraic metadata that the lowering uses to
    decide parallelisation legality — exactly the semantic information that
    the paper argues OpenMP/OpenACC-style [reduction(+:x)] clauses cannot
    express for user-defined operators. *)

type custom_fn = {
  fn_name : string;
  apply : Mdh_tensor.Scalar.value -> Mdh_tensor.Scalar.value -> Mdh_tensor.Scalar.value;
  body : Mdh_expr.Expr.t option;
      (** The operator as an expression in [Var "lhs"] and [Var "rhs"] of
          its element type, from which [apply] is derived ({!of_body}).
          [None] for the builtins and for operators given only as a
          closure ({!custom}), which the Specializer cannot compile. *)
  associative : bool;
      (** Declared by the operator author; checked by property tests. *)
  commutative : bool;
  identity : Mdh_tensor.Scalar.value option;
  builtin : bool;
      (** True for operators expressible in OpenMP/OpenACC reduction clauses
          (add, mul, min, max); custom operators like PRL's [prl_max] are
          not. *)
}

type t =
  | Cc
  | Pw of custom_fn
  | Ps of custom_fn

val cc : t
val pw : custom_fn -> t
val ps : custom_fn -> t

val name : t -> string
val pp : Format.formatter -> t -> unit

val is_reduction : t -> bool
(** [true] for [Pw] and [Ps] — the dimension carries a reduction. *)

val collapses : t -> bool
(** [true] iff the result extent along the dimension is 1 ([Pw]). *)

val result_extent : t -> int -> int
(** Result extent along the dimension given its iteration extent. *)

val parallelisable : t -> bool
(** Whether the lowering may split this dimension across parallel units:
    always for [Cc]; for [Pw]/[Ps] iff the customising function is
    associative. *)

val custom_fn_of : t -> custom_fn option

(* Pre-implemented customising functions (paper Appendix A pre-implements
   cc/pw/ps; add/mul/max/min are the builtin reduction operators of
   OpenMP/OpenACC). Each is specialised to an element type. *)

val add : Mdh_tensor.Scalar.ty -> custom_fn
val mul : Mdh_tensor.Scalar.ty -> custom_fn
val max : Mdh_tensor.Scalar.ty -> custom_fn
val min : Mdh_tensor.Scalar.ty -> custom_fn

val bor : Mdh_tensor.Scalar.ty -> custom_fn
(** Bitwise-or reduction over integer elements ([Int32]/[Int64]; other
    types raise on application). Deliberately declared associative but
    {e not} commutative, although the implementation is both — the
    property verifier reports the undeclared commutativity ([MDH112]),
    making this the frontend's witness for verified-but-undeclared
    metadata. Custom-style ([builtin = false]). *)

val custom :
  name:string ->
  ?associative:bool ->
  ?commutative:bool ->
  ?identity:Mdh_tensor.Scalar.value ->
  (Mdh_tensor.Scalar.value -> Mdh_tensor.Scalar.value -> Mdh_tensor.Scalar.value) ->
  custom_fn
(** A user-defined customising function given only as a closure, for an
    operator an {!Mdh_expr.Expr.t} cannot state (e.g. {!bor}, which needs
    bitwise operators). [associative] defaults to [true], [commutative] to
    [false]. *)

val of_body :
  name:string ->
  ty:Mdh_tensor.Scalar.ty ->
  ?associative:bool ->
  ?commutative:bool ->
  ?identity:Mdh_tensor.Scalar.value ->
  Mdh_expr.Expr.t ->
  custom_fn
(** A user-defined customising function (the paper's [@pw_custom_func],
    e.g. [prl_max] in Listing 11) given as an expression [body] in
    [Var "lhs"] and [Var "rhs"], both of the element type [ty]. The body
    is type-checked: [lhs], [rhs] and the result must all have type [ty],
    and an ill-typed body raises [Invalid_argument]. [apply] evaluates the
    body ({!Mdh_expr.Eval}), so the operator has one definition. Defaults
    as in {!custom}. *)

val key : custom_fn -> string
(** What a cache keyed on an operator must key on: its name, followed by
    its printed body when it has one (two operators can share a name).
    A closure-only operator is keyed by its name alone. *)

val with_declared :
  ?associative:bool ->
  ?commutative:bool ->
  ?identity:Mdh_tensor.Scalar.value option ->
  custom_fn ->
  custom_fn
(** Override parts of an operator's declared algebraic metadata, keeping the
    implementation. Used by the property verifier to demote operators whose
    declarations were falsified ([~identity:None] withdraws a declared
    identity). Omitted arguments keep the current declaration. *)

val combine_partials : t -> dim:int -> Mdh_tensor.Dense.t -> Mdh_tensor.Dense.t -> Mdh_tensor.Dense.t
(** [combine_partials op ~dim lhs rhs] recombines two partial-result tensors
    along [dim], implementing Appendix A's operator semantics: [Cc]
    concatenates; [Pw] applies the customising function point-wise (both
    operands have extent 1 along [dim]); [Ps] concatenates after adding
    [lhs]'s last hyperplane into every hyperplane of [rhs]. *)
