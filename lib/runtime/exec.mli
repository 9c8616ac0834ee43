(** Plan-driven execution of scheduled MDH computations on the host,
    using the domain pool.

    Two executors serve a run. A plan the {!Specializer} accepts — every
    catalogue computation: fp32 and fp64 arithmetic, records, selects and
    custom combine operators with an expression body, such as PRL's and
    KMeans's — is compiled, on every call, to strided row programs over
    flat float stores and executed, in parallel jobs over one level of
    the plan: its [Distribute] level, in disjoint slabs of each output
    (bit-identical on every pool), or in a plan without one its
    [Tree_reduce] level, in partials combined in order. Everything else
    (e.g. an operator given only as a closure) runs on the reference,
    {!Mdh_core.Semantics.exec}. Each such fallback counts once under
    [runtime.exec.fallbacks] and runs in an [exec.reference] trace span
    whose [reason] argument is the Specializer's refusal. The Specializer
    accumulates fp32 in double and is tolerance-equal to the reference
    there — [~specialize:false] runs the reference itself, where
    bit-identity with it matters. *)

val run :
  ?device:Mdh_machine.Device.t ->
  ?specialize:bool ->
  Pool.t ->
  Mdh_core.Md_hom.t ->
  Mdh_lowering.Schedule.t ->
  Mdh_tensor.Buffer.env ->
  (Mdh_tensor.Buffer.env, string) result
(** Fails iff the schedule is illegal for [device] (default: a single-layer
    description of the pool, one unit per worker — a schedule whose
    [used_layers] do not fit is rejected, not silently accepted; pass the
    device the schedule was tuned for to run it), or the inputs do not
    match [md]: an input buffer missing or not of its declared type and
    shape, or an element of a boxed input not of its type (a record that
    lacks a declared field, say). Neither raises. [specialize] (default
    true) allows plan-compiled execution; with it off, the run is the
    reference's and is not counted as a fallback.
    A zero-extent dimension short-circuits to {!run_seq} — parallel
    execution of an empty iteration space is defined to be the sequential
    semantics. *)

val run_with_plan :
  ?fastpath:bool ->
  ?specialize:bool ->
  Pool.t ->
  Mdh_lowering.Plan.t ->
  Mdh_core.Md_hom.t ->
  Mdh_tensor.Buffer.env ->
  (Mdh_tensor.Buffer.env, string) result
(** Execute an already-built plan directly, bypassing schedule legality
    checks. This is how rewritten plans — which have no originating
    schedule — are run: {!run} is {!Mdh_lowering.Plan.build} followed by
    this function. The plan must belong to [md] (same dimensions and
    extents); [specialize], and the [Error] on inputs that do not match
    [md], as in {!run}. [fastpath] is ignored: it is kept only for the
    benchmark harness under [perf/], which passes it, and goes with that
    call. *)

val run_seq : Mdh_core.Md_hom.t -> Mdh_tensor.Buffer.env -> Mdh_tensor.Buffer.env
(** Sequential in-place execution (alias for [Semantics.exec]), the
    baseline the parallel path is checked against. *)

val host_device : Pool.t -> Mdh_machine.Device.t
(** The default execution device: one layer ([workers]) with one unit per
    pool worker. *)
