(** The {!Opcheck}-backed justification oracle for {!Mdh_rewrite.Rewrite}.

    Bridges the property verifier to the rewrite engine: a [prove] call
    runs (memoized) {!Opcheck.verify} on the operator and maps the
    machine-checked outcome to a rewrite verdict. This is the only path
    by which algebra-gated rewrite rules obtain evidence — declared
    metadata never reaches the engine as proof. *)

val report :
  ?seed:int -> ty:Mdh_tensor.Scalar.ty -> Mdh_combine.Combine.custom_fn ->
  Opcheck.report
(** {!Opcheck.verify} (default seed 42), memoized for a builtin and for
    an operator with a body; a closure-only operator, which its name
    alone does not identify, is verified on every call. Safe to call
    from concurrent domains and threads. *)

val oracle : ?seed:int -> unit -> Mdh_rewrite.Rewrite.oracle
(** Verification reports are memoized as {!report} memoizes them: per
    (type, {!Mdh_combine.Combine.key}) — the operator's name and, when it
    has one, its printed body, builtins marked as such — so repeated
    rewrites of one workload verify each builtin and each operator with a
    body once per process, and two operators that share a name get a
    report each. *)
