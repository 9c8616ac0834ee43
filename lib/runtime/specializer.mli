(** Plan-compiled execution: the code the plan generates, and the one
    executor {!Exec} runs a computation on beside the reference.

    Each call compiles its [Plan.t] afresh: a compile takes microseconds,
    less than a key that told computations and plans apart would cost,
    so nothing is cached and a verdict never depends on what ran before.
    The plan's levels drive the loop nest, staged once per job as
    closures. A run reads each fp32 or fp64 input's store in place
    ({!Mdh_tensor.Dense.floats}) and never writes it, and writes its
    double accumulators straight into each float output's store (rounded
    for fp32). Every compile is observed on the
    [runtime.specializer.compile_s] histogram and every run on
    [runtime.specializer.run_s].

    {b Splits.} A run cuts one level of the plan, its split, into jobs,
    decided once per compile: the [Distribute] level, whose jobs each
    write their own disjoint slab of the accumulator; or, in a plan
    without one, the [Tree_reduce] level, whose jobs each fold a private
    accumulator over the whole result, combined in chunk order. A plan
    with neither runs as one job. Under a [Distribute] level the tree is
    a nest loop like any other.

    {b Row steps.} Every job runs one list of loops, outermost first,
    and its last loop is the row, run as one strided row loop. The list
    is what the plan has: the job's segment of the split's last
    dimension, then the nest steps (Seq, Accumulate, Scan and tile loops,
    and a [Tree_reduce] level under a [Distribute] level) in level order.
    A job walks its chunk of the split in segments of the split's last
    dimension, cut where the chunk starts and ends, decodes the split's
    other coordinates once per segment and runs the loops on it. A custom
    pw operator (below) whose row would run along a pw dimension moves a
    distributed segment loop last; a tree split's segment, which runs
    along the pw dimension itself, stays first. A plan whose nest ends in
    a tile loop, or that has no levels, is refused. A row is
    evaluated one strip of up to 256 points at a time. Each node of the
    value expression fills a float register of the strip's length,
    allocated once per job, with the operator chosen outside the element
    loop. A
    read whose indices are affine in the iteration variables (integer
    [Let]s substituted) is one offset plus one coefficient per dimension
    over a flat store, emitted once however often it is read. The strip
    then folds into the accumulator: a builtin pw operator inlined, into
    one local when the row runs along a pw dimension, at a constant
    stride otherwise; a custom operator through its compiled body (below).
    Every accumulator cell is combined in the order the nest visits its
    points, so the outputs do not depend on the strip length. A profiled
    run times the same row step, charging each strip to the leaf cell
    with a count of its points.

    {b Product rows.} An output whose value is [x * y] of two float reads
    (fp32 or fp64), folded by a builtin operator along a pw row — dot,
    matvec, the matmuls, CCSD(T) and MCC — is recorded as such once per
    compile: the two reads' stores and addresses, and the fold. Its row
    runs one loop per strip that reads both stores, multiplies and folds
    into the one local, with no registers and no instruction calls. It
    checks both reads' spans on every strip and folds in the same order,
    so its outputs are bit-identical to the same product computed
    through registers. A strided cc-row fold and every other value keep
    the register form.

    {b Records and custom operators.} Nothing record-shaped exists at run
    time. A record input is unpacked on each call, through
    {!Mdh_tensor.Dense.record_field}, into one float store per field a
    program reads: O(input elements) per call, with no boxing per
    element (profiled as the [unpack] segment). A read of a record is one
    read per field, [Field] picks one, and [MkRecord] and a record [Let]
    bind one value per field. An output's accumulator is one double
    array per field of its type. A custom pw operator's body
    ({!Mdh_combine.Combine.custom_fn.body}) compiles, by the same row
    compiler, to one program with [lhs] bound to an accumulator cell's
    fields and [rhs] to a lane's; each cell is seeded by its first point,
    as in {!Mdh_core.Semantics.exec}, which a visited map per accumulator
    records. Along a cc row the body runs once over the strip, every lane
    into its own cell; this is every custom operator's row under a plan
    with a [Distribute] level. Only a plan without one (the sequential
    plan, or a reduction with no cc dimension) runs the row along a pw
    dimension, where the body folds lane after lane into the one cell,
    one run per point. Either way each cell gets its points in the order
    the nest visits them. On a pool with worker domains, the partials of
    a tree split (a plan without a [Distribute] level) combine in chunk
    order through the same fold as a cc row, a strip of cells per run of
    the body. Write-back packs a
    record output element by element ({!Mdh_tensor.Dense.set_record}).

    {b No allocation per point.} A warm run allocates per call and per
    job (state, registers, staged closures, unpacked stores, and a tree
    split's private accumulators), and per element of a record output,
    never per iteration point or per row. On a pool without worker
    domains the minor-word count is deterministic; [test_specializer.ml]
    ("no allocation per iteration point") pins that it does not grow with
    the iteration space on every catalogue computation and on every form
    a row compiles. The post-scan of ps
    dimensions runs one direct loop per builtin operator, and builtin
    tree partials combine through the strided strip fold.

    {b Eligibility.} Registers are float, and every value keeps a kind
    that says how exact it is. Inputs are fp32, fp64, or records of
    int32, fp32 and fp64 fields; outputs are fp32, fp64, or records
    (fields fp32, fp64, int32, int64 or bool). The value expression may
    use constants (not char), reads, [Let]s, records ([Field],
    [MkRecord]), float [Add]/[Sub]/[Mul]/[Div]/[Min]/[Max] and negation,
    comparisons, [And]/[Or]/[Not], [If] and numeric casts, under these
    rules:
    - Integers affine in the iteration variables stay affine (indices
      must be); one enters a register wrapped to 32 bits if it is an
      int32, as {!Mdh_core.Semantics.exec}'s arithmetic wraps it, and only within 2^53
      over the iteration box if it is an int64.
      Other int32 values live in registers exactly: [Add], [Sub] and
      negation wrap to 32 bits, [Min]/[Max] select. Int64 values must be
      affine; on data they are only moved, compared and selected.
    - fp64 arithmetic is exact. fp32 is computed in double and rounded
      only by casts, so a computed fp32 value is not exact.
    - A comparison fills a 0/1 mask; its operands must be exact: ints,
      booleans, fp64, and fp32 reads, constants and casts of exact
      values. [And]/[Or]/[Not] combine masks.
    - [If] is a select over a mask. Both branches (and the right operand
      of [And]/[Or]) are computed at every lane, so every read under them
      must be proven in range over the iteration box.
    Every reduction operator is one builtin ([add]/[mul]/[min]/[max]) or
    a pw operator with a body, with a single pw operator across
    dimensions (the restriction the reference executor enforces). Over
    one pw dimension a custom operator need be neither associative nor
    commutative: lane by lane or across the cells, each cell folds its
    points in {!Mdh_core.Semantics.exec}'s order. Over several it must be
    both, because the nest may visit them in another order.
    Refused, with an error naming the form: a custom [ps] operator, an
    operator with no body (e.g. [Combine.bor]), a read under a branch not
    proven in range, a comparison of computed fp32 values, int64
    arithmetic on data (or its cast to int32), a record input with an
    int64 field (which no float store holds exactly), float-to-integer
    casts, integer arithmetic not affine in the iteration variables where
    an index or an int64 needs it, an int32 index that leaves int32 over
    the iteration box, [Mul]/[Div] on int32 data, char constants, and a
    builtin reduction of a record output. Everything refused runs on
    {!Mdh_core.Semantics.exec} when dispatched through {!Exec}.

    A float accumulation happens in double precision with one rounding
    per fp32 output element, so fp32 results are tolerance-equal — not
    bit-equal — to the per-op-rounding interpreter. Every other output
    equals
    {!Mdh_core.Semantics.exec}'s bit for bit, except where a tree split
    runs on a pool with worker domains: its partials regroup the fold,
    which changes the bits of one that is not exactly associative (a
    builtin fp64 [add] or [mul], or a custom operator declared
    associative). A plan with a [Distribute] level folds each cell in
    one job, in the nest's order, so its outputs are the same on every
    pool. A selection such as PRL's and KMeans's is exact under any
    plan. *)

val supported :
  Mdh_lowering.Plan.t -> Mdh_core.Md_hom.t -> (unit, string) result
(** Eligibility check, by compiling the plan: [Ok ()] iff {!try_run}
    would execute this plan (buffer bindings aside); the error is the
    reason the computation is not specializable. *)

val run :
  Pool.t ->
  Mdh_lowering.Plan.t ->
  Mdh_core.Md_hom.t ->
  Mdh_tensor.Buffer.env ->
  (Mdh_tensor.Buffer.env, string) result
(** [Ok env'] iff the plan compiled and the supplied buffers match the
    declared types and shapes. On a pool with worker domains the run
    cuts the plan's split into {!Pool.chunk_budget} jobs, or fewer when
    the split has fewer points, and runs them in parallel; on a pool
    without, it is one job. The error is the reason the run
    was declined: the compile's refusal, as {!supported} gives it, a
    zero-extent iteration space, or ["input buffers do not match the
    plan"]. One call compiles once. *)

val try_run :
  Pool.t ->
  Mdh_lowering.Plan.t ->
  Mdh_core.Md_hom.t ->
  Mdh_tensor.Buffer.env ->
  Mdh_tensor.Buffer.env option
(** {!run} without the reason. *)

val clear : unit -> unit
(** Does nothing: the Specializer keeps no state between calls. Kept
    only for the benchmark harness under [perf/], which calls it before
    each measurement; it goes once those calls do. *)
