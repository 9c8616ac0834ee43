(** Process-wide memoized plan construction.

    Every downstream consumer of {!Plan.t} — the executor, the cost model,
    the simulator, and the code generators — obtains plans through this
    cache, keyed on (hom, device, schedule), so the tuner's inner loop
    stops rebuilding identical plans. It is the {!Mdh_support.Memo} table
    [lowering.plan_cache]: hit/miss counters live in the
    {!Mdh_obs.Metrics} registry under [lowering.plan_cache.*] and show up
    in every [--metrics] summary. *)

val build :
  Mdh_core.Md_hom.t ->
  Mdh_machine.Device.t ->
  Schedule.t ->
  (Plan.t, string) result
(** {!Plan.build} through the cache. Illegal-schedule errors are cached
    too: re-probing a rejected schedule is also a hit. *)

type stats = Mdh_support.Memo.stats = { n_hits : int; n_misses : int; n_entries : int }

val stats : unit -> stats
(** Process-cumulative; take a before/after delta for one run. *)

val clear : unit -> unit
(** Drop every cached plan; the counters are kept. *)
