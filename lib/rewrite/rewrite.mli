(** Verified equality-saturation over scalar expressions and plans.

    A bounded rewrite-to-fixpoint engine with two tiers. Tier 1 saturates
    the combine body ({!Mdh_expr.Expr.t}): constant folding, algebraic
    identities (x+0, x*1, min/max absorption), strength reduction, and
    common-subexpression elimination that hoists shared [Read]s and
    subtrees into [Let]s. Tier 2 rewrites {!Mdh_lowering.Plan.t}
    structure: unit-extent level elimination, adjacent-[Seq] fusion,
    tile-extent simplification, and reassociation of [Tree_reduce]
    shapes.

    Every applied rule carries a {!justification}: either [Pure] — the
    identity preserves semantics for all operators, bit-for-bit — or
    [Algebra] — the rule is sound only under an operator property that a
    {!oracle} machine-proved. Rules are never gated on declared-but-
    unverified annotations; a declared property the oracle refutes
    poisons the operator and blocks every algebra-gated rule on it.
    Floating-point reassociation is refused even for a proved-associative
    operator unless the scalar domain is exact (the proof is algebraic,
    not a statement about rounding); builtin min/max are exempt because
    selection never rounds. *)

module Scalar = Mdh_tensor.Scalar
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module Md_hom = Mdh_core.Md_hom
module Device = Mdh_machine.Device
module Plan = Mdh_lowering.Plan
module Cost = Mdh_lowering.Cost
module Schedule = Mdh_lowering.Schedule

(** {1 The justification oracle} *)

type property = Associative | Commutative

type verdict =
  | Proved of { evaluations : int }  (** held on this many operator applications *)
  | Refuted of { witness : string }  (** rendered counterexample *)
  | Unknown of string  (** the oracle could not decide *)

type oracle = {
  oracle_name : string;  (** stable id, e.g. ["opcheck-42"] *)
  prove : Scalar.ty -> Combine.custom_fn -> property -> verdict;
}

val pure_oracle : oracle
(** Proves nothing: every [prove] answers [Unknown]. With this oracle only
    [Pure]-justified rules can fire. *)

val property_name : property -> string
(** ["associative"] / ["commutative"]. *)

(** {1 Applied-rule provenance} *)

type justification =
  | Pure of string
      (** semantics-preserving for all operators; the payload says why *)
  | Algebra of {
      alg_op : string;  (** operator the rule reassociated *)
      alg_property : property;
      alg_evaluations : int;  (** oracle evidence size *)
    }

type applied = {
  ap_tier : [ `Expr | `Plan ];
  ap_rule : string;  (** stable rule id, e.g. ["cse"], ["tree-balance"] *)
  ap_site : string;  (** where it fired: output name or plan level *)
  ap_detail : string;  (** human rendering of the change *)
  ap_just : justification;
}

val justification_to_string : justification -> string

val exact_scalar_domain : Scalar.ty -> bool
(** Types whose arithmetic never rounds: integers, bool, char, and
    records of such. Floats are inexact — reassociation changes results. *)

(** {1 Tier 1: expression saturation} *)

val simplify_expr : Expr.t -> Expr.t
(** The tier-1 rules without CSE and without provenance: a bounded
    rewrite-to-fixpoint of constant folding, algebraic identities,
    strength reduction and dead-[let] removal. A rule that drops or
    unconditionally evaluates a subexpression fires only when that
    subexpression is total (cannot raise), so the result evaluates to the
    same value as the input, and raises exactly when the input raises.
    This is the project's one expression simplifier: {!saturate_expr} runs
    it before its CSE steps, and the C emitters
    ({!Mdh_codegen.C_like.emit_expr}) run it on every expression they
    print. *)

val saturate_expr : ?site:string -> Expr.t -> Expr.t * applied list
(** {!simplify_expr}, recording every rule it applies, followed by CSE
    hoisting. Every rule applied is [Pure]; the result is bit-identical to
    the input under evaluation. [site] labels the provenance records. *)

val saturate_outputs : Md_hom.t -> Md_hom.t * applied list
(** [saturate_expr] over every output's combine body. The returned
    computation has the same iteration space, combine operators and
    accesses — only the bodies (and hence [flops_per_point]) change. *)

(** {1 Tier 2: plan saturation} *)

val saturate_plan :
  oracle:oracle ->
  Md_hom.t ->
  Device.t ->
  Cost.codegen ->
  Plan.t ->
  Plan.t * applied list
(** Structural plan rewrites: unit-extent [Seq] elimination and
    adjacent same-dimension [Seq] fusion (pure identities); unit-tile
    elimination and divisible-extent tile merging (pure identities,
    kept only when the cost model does not worsen); [Tree_reduce]
    rebalancing to a power-of-two shape (algebra-gated: requires the
    oracle to prove associativity, no poisoned declaration, and an
    exact scalar domain or builtin min/max). *)

(** {1 The optimize driver} *)

type report = {
  r_md : Md_hom.t;  (** saturated computation (tier 1 applied) *)
  r_raw_plan : Plan.t;
  r_plan : Plan.t;  (** saturated plan (tier 2 applied over [r_md]) *)
  r_raw_seconds : float;  (** cost model on the raw computation + plan *)
  r_seconds : float;  (** cost model on the saturated pair *)
  r_applied : applied list;  (** in application order *)
}

val optimize :
  ?oracle:oracle ->
  Md_hom.t ->
  Device.t ->
  Cost.codegen ->
  Schedule.t ->
  (report, string) result
(** Saturate both tiers under one schedule and price the before/after
    pair with the cost model. [Error] iff the schedule is illegal. *)

(** {1 Report rendering} *)

type rule_summary = {
  rs_tier : string;  (** ["expr"] or ["plan"] *)
  rs_rule : string;
  rs_site : string;
  rs_detail : string;
  rs_verified : bool;  (** justified by an oracle proof, not a pure identity *)
  rs_justification : string;
}

type summary = {
  s_raw_digest : string;
  s_digest : string;
  s_raw_point_flops : int;
  s_point_flops : int;
  s_raw_seconds : float;
  s_seconds : float;
  s_applied : rule_summary list;
}
(** Everything the renderers read from a {!report}, as plain data — the
    form the report takes on the mdhd wire. *)

val summarize : report -> summary

val summary_json : name:string -> device:string -> summary -> string
(** Schema [mdh-optimize/1]: workload, device, raw/saturated plan digests
    and model seconds, and one record per applied rule ([tier], [rule],
    [site], [detail], [kind], [justification]). *)

val report_json : name:string -> device:string -> report -> string
(** [summary_json] of [summarize]. *)

val pp_summary :
  name:string -> device:string -> Format.formatter -> summary -> unit
(** Human rendering: each applied rule with its justification, then the
    before/after cost-model delta. *)
