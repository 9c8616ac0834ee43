(** Plan-driven parallel execution of scheduled MDH computations on the
    host, using the domain pool.

    The executor walks the same {!Mdh_lowering.Plan.t} the cost model and
    code generators consume. The plan's [Distribute] level splits *all*
    parallel concatenation dimensions into boxes (not just one), the
    [Tree_reduce] level splits the parallelised reduction dimension with
    the leftover chunk budget ({!Pool.chunk_budget}, which the
    {!Specializer} splits by too), each box is evaluated
    independently with the plan's cache tiles honored inside the box
    ({!Mdh_core.Semantics.eval_box_tiled}), and partial results are
    recombined in index order with the dimension's combine operator —
    so associative (not necessarily commutative) operators yield the
    sequential result. Pure-concatenation decompositions skip the combine
    fold entirely and write each box in place.

    Dispatch order: when the computation structurally matches one of the
    flat-array kernels (dot/matvec/matmul, see {!Fastpath}), the
    interpreter is bypassed; otherwise a plan the {!Specializer} accepts
    — every catalogue computation: fp32 and fp64 arithmetic, records,
    selects and custom combine operators with an expression body, such
    as PRL's and KMeans's — is compiled, on every call, to strided row
    programs over flat float stores and executed; the generic box walker
    is the fallback for everything else (e.g. an operator given only as a
    closure). Both accelerated paths accumulate fp32 in double and are
    tolerance-equal to the interpreter there — disable with
    [~fastpath:false ~specialize:false] where bit-identity with the
    sequential interpreter matters. *)

val run :
  ?device:Mdh_machine.Device.t ->
  ?fastpath:bool ->
  ?specialize:bool ->
  Pool.t ->
  Mdh_core.Md_hom.t ->
  Mdh_lowering.Schedule.t ->
  Mdh_tensor.Buffer.env ->
  (Mdh_tensor.Buffer.env, string) result
(** Fails iff the schedule is illegal for [device] (default: a single-layer
    description of the pool, one unit per worker — a schedule whose
    [used_layers] do not fit is rejected, not silently accepted; pass the
    device the schedule was tuned for to run it). [fastpath] (default
    true) allows kernel dispatch; [specialize] (default true) allows
    plan-compiled execution. When the plan exposes no parallel level, runs
    sequentially.
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
    extents); options as in {!run}. *)

val run_seq : Mdh_core.Md_hom.t -> Mdh_tensor.Buffer.env -> Mdh_tensor.Buffer.env
(** Sequential in-place execution (alias for [Semantics.exec]), the
    baseline the parallel path is checked against. *)

val host_device : Pool.t -> Mdh_machine.Device.t
(** The default execution device: one layer ([workers]) with one unit per
    pool worker. *)
