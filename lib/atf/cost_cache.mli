(** Process-wide memoization of the analytic cost model.

    Tuning evaluates the same [(md_hom, device, codegen, schedule)] points
    over and over — annealing revisits neighbours, the baselines re-tune
    the same workloads, and `bench` sweeps the whole catalogue — so every
    [Cost.seconds] verdict (including the "illegal schedule" errors) is
    cached under a canonical key. The key digests the full printed MDH
    representation, the body and the declared associativity,
    commutativity and identity of each user-defined operator (the printed
    representation names it only), and the device name and codegen
    profile; the device name is assumed to identify the device model.

    The table is safe to consult from multiple domains, and the hit/miss
    counters let benchmarks assert how many real cost-model evaluations a
    run performed (the acceptance check for warm tuning-database runs).
    [--no-cache] turns it off with every other table
    ({!Mdh_support.Memo.set_caching}). *)

type ctx
(** Everything but the schedule, pre-digested once per tuning run. *)

val context :
  Mdh_core.Md_hom.t ->
  Mdh_machine.Device.t ->
  Mdh_lowering.Cost.codegen ->
  ctx

val context_key : ctx -> string
(** The canonical digest of [(md_hom, device, codegen)] — the tuning
    database builds its keys on top of this. *)

val seconds : ctx -> Mdh_lowering.Schedule.t -> (float, string) result
(** Memoized [Cost.seconds]. *)

type stats = Mdh_support.Memo.stats = { n_hits : int; n_misses : int; n_entries : int }

val stats : unit -> stats
(** [n_misses] = real cost-model evaluations. The counts are the
    [atf.cost_cache.hits] / [atf.cost_cache.misses] counters of the
    {!Mdh_support.Memo} table [atf.cost_cache], per process: front ends
    that report one run's traffic take a before/after delta. *)

val clear : unit -> unit
(** Drop every cached verdict; the counters are kept. *)
