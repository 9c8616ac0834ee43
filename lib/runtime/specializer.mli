(** Plan-compiled fp32 execution: the generic counterpart of the
    hand-written {!Fastpath} kernels.

    Any fp32 [Plan.t] is compiled once — the loop nest is driven by the
    plan's Distribute/Tile/Seq/Accumulate/Scan levels, buffer reads go
    through precomputed row-major strides into flat [float array]s, and
    the point expression is staged into unboxed thunks — so executing a
    plan costs no per-point tensor boxing or environment lookups. Compiled
    plans are memoized process-wide under
    {!Mdh_lowering.Plan.digest} (plus a fingerprint of the computation),
    in the {!Mdh_support.Memo} table [runtime.specializer], with cache
    traffic on [runtime.specializer.hits|misses|compiles].

    Eligibility: all inputs read and all outputs are [fp32]; every
    reduction operator ([pw]/[ps]) is one builtin ([add]/[mul]/[min]/[max]),
    with a single pw operator across dimensions (the same restriction the
    reference executor enforces); the value expression uses no
    record types. Everything else falls back to the generic box walker.

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
    computation, zero-extent iteration space, or mismatched buffers. *)

type stats = { hits : int; misses : int; compiles : int }

val stats : unit -> stats
(** Current values of the [runtime.specializer.*] counters. *)

val clear : unit -> unit
(** Drop every compiled plan; the counters are kept. *)
