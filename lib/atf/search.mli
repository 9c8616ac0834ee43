(** Search strategies over a tuning space. The cost function returns [None]
    for configurations the cost model rejects (illegal schedules); all
    strategies skip them. The budget counts cost evaluations — the
    reproduction's stand-in for the paper's 12-hour wall-clock tuning
    budget.

    Every strategy is deterministic in its seed(s), with or without a
    worker pool: parallelism only changes who computes each cost, never
    which candidates are drawn or how ties are resolved. The cost function
    must be pure and safe to call from multiple domains.

    Robustness: a parallel fan-out that fails or times out (worker fault,
    watchdog) is retried sequentially in the caller — counted as
    [runtime.pool.degraded] — instead of aborting the search; determinism
    makes the retry produce the identical result. Annealing additionally
    exposes its complete per-chain progress as a {!chain_state} value, so
    a deadline ([should_stop]) can suspend a search and a later process
    can resume it bit-identically. *)

type result = {
  best : Param.config;
  best_cost : float;
  evaluations : int;
      (** Cost-model evaluations this search performed; [0] marks a result
          recalled from the tuning database without searching. *)
  trace : (int * float) list;
      (** (evaluation index, best-so-far) at every improvement *)
}

val evaluate_batch :
  ?pool:Mdh_runtime.Pool.t ->
  cost:(Param.config -> float option) ->
  Param.config array ->
  float option array
(** Cost every configuration, fanning the evaluations across the pool when
    one is given (order of results always matches the input order). Falls
    back to a sequential pass when the pool fan-out raises or times out. *)

val exhaustive :
  ?pool:Mdh_runtime.Pool.t ->
  ?should_stop:(unit -> bool) ->
  Space.t -> cost:(Param.config -> float option) ->
  result option
(** Evaluate every configuration (capped at 100k); [None] when the space has
    no valid configuration. [should_stop] is polled between evaluation
    chunks; stopping early returns the best of what was evaluated. *)

val random_search :
  ?pool:Mdh_runtime.Pool.t ->
  ?should_stop:(unit -> bool) ->
  Space.t -> seed:int -> budget:int ->
  cost:(Param.config -> float option) -> result option
(** Uniform sampling. Sampling is rng-only (costs never steer it), so the
    candidate list is drawn sequentially and costed as one batch; at most
    [10 x budget] draw attempts guard against spaces where most samples
    dead-end. [should_stop] as in {!exhaustive}. *)

(** {1 Checkpointable simulated annealing} *)

type chain_state = {
  cs_seed : int;
  cs_rng : int64;  (** complete rng state ({!Mdh_support.Rng.state}) *)
  cs_evals : int;
  cs_best : Param.config option;
  cs_best_cost : float;
  cs_trace : (int * float) list;  (** newest improvement first *)
  cs_current : (Param.config * float) option;  (** [None] until init *)
  cs_t0 : float;  (** cooling scale, fixed by the initial point *)
  cs_done : bool;
}
(** The complete progress of one annealing chain. Resuming a chain from a
    snapshot replays the exact rng draw sequence of an uninterrupted run,
    so the final result is bit-identical however often the chain was
    suspended in between. *)

val chain_start : seed:int -> chain_state

val chain_result : chain_state -> result option
(** The chain's result so far; [None] when no legal point was found. *)

val anneal_chain :
  ?should_stop:(unit -> bool) ->
  ?on_progress:(chain_state -> unit) ->
  ?progress_every:int ->
  Space.t -> budget:int -> cost:(Param.config -> float option) ->
  chain_state -> chain_state
(** Advance one chain — a random start, then a neighbourhood walk with
    exponential cooling — until its budget is consumed, no legal start is
    found, or [should_stop] fires between evaluations. A chain is
    inherently sequential; {!anneal_portfolio} runs several in parallel. [on_progress] is
    invoked with a resumable snapshot every [progress_every] (default 64)
    evaluations and once on completion — the checkpoint hook. *)

type portfolio_outcome =
  | Portfolio_done of result option
  | Portfolio_paused of chain_state array
      (** At least one chain was suspended by [should_stop]; the array
          holds every chain's resumable state (index-aligned with the
          input). *)

val anneal_portfolio :
  ?pool:Mdh_runtime.Pool.t ->
  ?should_stop:(unit -> bool) ->
  ?on_progress:(int -> chain_state -> unit) ->
  ?progress_every:int ->
  Space.t -> chains:chain_state array -> budget:int ->
  cost:(Param.config -> float option) ->
  portfolio_outcome
(** Run (or resume) a portfolio of chains, one per state, each to the given
    per-chain budget; chains run across the pool when one is given.
    [on_progress] receives the chain index alongside each snapshot.
    Combination is deterministic in the chain list (ties to the earliest),
    with [evaluations] summed over chains that produced a result. *)
