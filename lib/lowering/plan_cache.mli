(** Memoized {!Plan.build}, kept only for the benchmark harness under
    [perf/], which still calls it; no library path, front end, bench or
    example uses it. Computing its key (printed hom, device name, schedule
    string, MD5) costs more than the {!Plan.build} it saves, so every
    consumer builds its plan directly. Delete this module once [perf/]
    calls {!Plan.build} instead.

    It is the {!Mdh_support.Memo} table [lowering.plan_cache]: its
    hit/miss counters live in the {!Mdh_obs.Metrics} registry under
    [lowering.plan_cache.*]. *)

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
