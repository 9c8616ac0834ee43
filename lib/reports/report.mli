(** Shared helpers for the evaluation reports: section headers, time and
    speedup formatting, failure abbreviations, and MDH compilation. *)

val section : string -> unit
val time_str : float -> string
val speedup_str : float -> string

val short_failure : Mdh_baselines.Common.failure -> string
(** The abbreviated failure cell used in the tables: ["FAIL:no-par"],
    ["FAIL:resources"], ["FAIL:polyhedra"], ["FAIL:reducer"], ["n/a"]. *)

val md_of : Mdh_workloads.Workload.t -> string -> Mdh_core.Md_hom.t
(** Transform a workload at one of its paper input sizes ("1" or "2"). *)

val mdh_seconds : Mdh_core.Md_hom.t -> Mdh_machine.Device.t -> float
(** Auto-tuned MDH time estimate; raises [Failure] if compilation fails
    (it cannot, for well-formed computations). *)

val observe_workload : string -> (unit -> 'a) -> 'a
(** Run a report's per-workload body under a trace span and account the
    cost-cache hit/miss delta (and wall time) to [name] in the ledger,
    accumulating across devices and repeat visits. *)

val workload_obs : unit -> (string * int * int * float) list
(** The ledger in first-visit order: (name, cost-cache hits, misses,
    wall seconds). *)
