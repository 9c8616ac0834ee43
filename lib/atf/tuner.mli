(** Auto-tuning of MDH schedules: builds the ATF parameter space for a
    computation on a device (per-dimension tile sizes with a cache-budget
    interdependence, and the parallel-dimension subset) and searches it
    against the analytic cost model.

    This is the reproduction of the paper's "fully automatic auto-tuning for
    both GPU and CPU code using ATF" (Section 5): the 12-hour wall-clock
    budget becomes an evaluation budget against the cost model.

    The engine is parallel and memoizing: batch strategies fan cost
    evaluations across a {!Mdh_runtime.Pool}, annealing runs a seeded
    portfolio of chains, every cost verdict goes through {!Cost_cache}, and
    finished results are recorded in a {!Tuning_db} so warm runs skip the
    search entirely. Determinism contract: the same seed (and chains)
    produces the same schedule, with or without a pool. *)

type strategy = Exhaustive | Random | Anneal | Auto
(** [Auto] (the default) enumerates exhaustively when the space is within
    the budget and anneals otherwise. *)

type tuning = {
  schedule : Mdh_lowering.Schedule.t;
  estimated_s : float;
  search : Search.result;
      (** On a tuning-database hit this is synthetic: [evaluations = 0],
          empty trace, empty best configuration. *)
  from_db : bool;  (** The schedule was recalled, not searched. *)
}

val space :
  ?parallel_options:int list list ->
  ?saturate:bool ->
  Mdh_core.Md_hom.t ->
  Mdh_machine.Device.t ->
  Space.t * (Param.config -> Mdh_lowering.Schedule.t)
(** The tuning space and the decoder from configurations to schedules.
    [parallel_options] restricts the parallel-dimension subsets that may be
    chosen (default: every parallelisable subset) — used to tune systems
    whose compilers cannot parallelise reductions. [saturate] (default
    false) prunes tile size 1 on dimensions of extent > 1: unit tiling is
    the structure {!Mdh_rewrite.Rewrite.saturate_plan}'s unit-tile
    elimination removes, so the rewrite-aware search space need not
    contain it. *)

val tune :
  ?strategy:strategy ->
  ?budget:int ->
  ?seed:int ->
  ?chains:int ->
  ?pool:Mdh_runtime.Pool.t ->
  ?parallel_options:int list list ->
  ?db:Tuning_db.t ->
  ?saturate:bool ->
  Mdh_core.Md_hom.t ->
  Mdh_machine.Device.t ->
  Mdh_lowering.Cost.codegen ->
  (tuning, string) Stdlib.result
(** Default budget 400 evaluations, seed 1, a single annealing chain, no
    pool. [chains > 1] splits the budget across that many independent
    annealing chains seeded [seed, seed+1, ...] and keeps the best — the
    chain count (not the pool) determines the result. [db] overrides the
    ambient tuning database ({!Tuning_db.set_ambient}); when one is in
    effect the search is skipped on a key hit and recorded on a miss.
    [saturate] (default false) tunes the rewrite-saturated computation
    ({!Mdh_rewrite.Rewrite.saturate_outputs}) over the pruned {!space} —
    returned schedules then belong to the saturated computation, and
    database entries carry a distinct ["+rewrite"] key component so raw
    and saturated results never shadow each other. [Error] when no legal
    schedule exists (cannot happen for well-formed computations: the
    sequential schedule is always legal). *)

(** {1 Deadlines and crash-safe resume} *)

type outcome =
  | Tuned of tuning
  | Suspended of { checkpoint : string; evaluations : int }
      (** The deadline (or stop predicate) fired mid-anneal; the complete
          portfolio state is on disk at [checkpoint], and a later
          [tune_resumable ~resume:true] with the same request continues
          from it. [evaluations] counts the work done so far. *)

val tune_resumable :
  ?strategy:strategy ->
  ?budget:int ->
  ?seed:int ->
  ?chains:int ->
  ?pool:Mdh_runtime.Pool.t ->
  ?parallel_options:int list list ->
  ?db:Tuning_db.t ->
  ?deadline_s:float ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  ?should_stop:(unit -> bool) ->
  ?saturate:bool ->
  Mdh_core.Md_hom.t ->
  Mdh_machine.Device.t ->
  Mdh_lowering.Cost.codegen ->
  (outcome, string) Stdlib.result
(** {!tune} with a wall-clock budget and crash-safe suspension.
    [deadline_s] bounds the search; [should_stop] is an additional
    caller-supplied stop predicate (tests use it to suspend after an exact
    evaluation count). When either fires, annealing strategies suspend to
    a checkpoint file and return [Suspended]; batch strategies
    ([Exhaustive]/[Random], including [Auto] resolving to exhaustive) stop
    between evaluation chunks and return the partial best as [Tuned]
    without recording it in the tuning database.

    While a deadline, stop predicate, checkpoint path or resume request is
    in effect, annealing writes a CRC-framed checkpoint (atomic rename of
    a per-write temp file, removed if the write fails) every
    [checkpoint_every] (default 64) evaluations per chain — to
    [checkpoint], defaulting to [mdh-<db key>.ckpt] next to the tuning
    database (or in the temp dir for in-memory databases). [resume]
    restores the portfolio from that file: the resumed search replays the
    exact rng draw sequence, so its result is bit-identical to an
    uninterrupted run — however often it was suspended or killed in
    between. A corrupt checkpoint warns on stderr, counts
    [atf.checkpoint.corrupt], and starts afresh; one for a different
    request (key mismatch) is ignored; completion deletes it. Checkpoint
    activity is visible as [atf.checkpoint.writes] / [.resumes] /
    [.corrupt]. Without any of those four options the behaviour (and
    stdout) is exactly {!tune}'s. *)
