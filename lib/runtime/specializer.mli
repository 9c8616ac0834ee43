(** Plan-compiled fp32 execution: the generic counterpart of the
    hand-written {!Fastpath} kernels.

    Any fp32 [Plan.t] is compiled once. The plan's Distribute, Tile,
    Seq, Accumulate and Scan levels drive the loop nest, staged once per
    job as closures. A run copies nothing in: it reads each input's store
    in place ({!Mdh_tensor.Dense.floats}) and never writes it, and it
    rounds its double accumulator to fp32 straight into each output's
    store. Compiled plans are memoized process-wide under
    {!Mdh_lowering.Plan.digest} (plus a fingerprint of the computation),
    in the {!Mdh_support.Memo} table [runtime.specializer], with cache
    traffic on [runtime.specializer.hits|misses|compiles].

    {b Row steps.} The innermost level of every job runs as one strided
    row loop: the last Seq/Accumulate/Scan/tile-inner step of the nest;
    with no nest, the [Tree_reduce] range; with neither, the last
    [Distribute] dimension, decoded once per row. A row is evaluated one
    strip of up to 256 points at a time. Each node of the value
    expression fills a float register of the strip's length, allocated
    once per job, with the operator chosen outside the element loop. A
    read whose indices are affine in the iteration variables (integer
    [Let]s substituted) is one offset plus one coefficient per dimension
    over the input's flat store. The strip then folds into the
    accumulator with the builtin pw operator inlined: into one local when
    the row runs along a pw dimension, at a constant stride otherwise.
    Every accumulator element is combined in the order the nest visits
    its points, so the outputs do not depend on the strip length. A
    profiled run times the same row step, charging each strip to the
    leaf cell with a count of its points.

    {b No allocation per point.} A warm run allocates per call and per
    job (state, registers, staged closures), never per iteration point
    or per row. On a pool without worker domains the minor-word count is
    deterministic; [test_specializer.ml] ("no allocation per iteration
    point") pins that it does not grow with the iteration space on every
    catalogue computation the Specializer accepts and on every form a row
    compiles. The post-scan of ps dimensions and the combine of tree
    partials run one direct loop per builtin operator.

    {b Eligibility.} All inputs read and all outputs are [fp32]; every
    reduction operator ([pw]/[ps]) is one builtin ([add]/[mul]/[min]/[max]),
    with a single pw operator across dimensions (the same restriction the
    reference executor enforces). The value expression is built from fp32
    and fp64 constants, reads, float [Add]/[Sub]/[Mul]/[Div]/[Min]/[Max],
    negation, casts to [fp32], and [Let]s; its integers (indices, integer
    [Let]s, integer-to-float casts) are affine in the iteration
    variables. Refused, with an error naming the form: [If], comparisons,
    [And]/[Or]/[Not], boolean, char and record constants, records,
    float-to-integer casts, a float [Let] whose body is an integer, and
    integer arithmetic not affine in the iteration variables (with any
    read it indexes). Everything refused
    falls back to the generic box walker.

    Accumulation happens in double precision with one rounding per output
    element, so results are tolerance-equal — not bit-equal — to the
    per-op-rounding interpreter, exactly like the fast-path kernels. *)

val supported :
  Mdh_lowering.Plan.t -> Mdh_core.Md_hom.t -> (unit, string) result
(** Cached eligibility check: [Ok ()] iff {!try_run} would execute this
    plan (buffer bindings aside); the error is the reason the computation
    is not specializable. *)

val try_run :
  Pool.t ->
  Mdh_lowering.Plan.t ->
  Mdh_core.Md_hom.t ->
  Mdh_tensor.Buffer.env ->
  Mdh_tensor.Buffer.env option
(** [Some env'] iff the plan compiled (possibly from cache) and the
    supplied buffers match the declared fp32 shapes; parallel over the
    plan's Distribute/Tree_reduce levels when the pool has more than one
    worker, cut into {!Pool.chunk_budget} jobs as the walker's boxes
    are. [None] means the generic walker should run — unsupported
    computation, zero-extent iteration space, or mismatched buffers
    (including a buffer without a float store). *)

type stats = { hits : int; misses : int; compiles : int }

val stats : unit -> stats
(** Current values of the [runtime.specializer.*] counters. *)

val clear : unit -> unit
(** Drop every compiled plan; the counters are kept. *)
