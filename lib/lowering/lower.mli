(** Schedule construction: heuristic defaults and the candidate space
    searched by the auto-tuner.

    [mdh_default] mirrors what the MDH pipeline does before tuning: tile all
    dimensions to a modest cache block, parallelise every parallelisable
    dimension, use every device layer. [tile_options] and
    [parallel_dim_options] supply the per-dimension tile sizes and the
    parallel-dimension subsets from which [Mdh_atf.Tuner.space] builds the
    search space. *)

val parallelisable_dims : Mdh_core.Md_hom.t -> int list
(** Dimensions whose combine operator permits parallelisation: all [cc]
    dimensions plus reductions with associative customising functions. *)

val mdh_default : Mdh_core.Md_hom.t -> Mdh_machine.Device.t -> Schedule.t
(** Heuristic schedule: power-of-two tiles sized to the innermost cache,
    all parallelisable dimensions parallel, all layers used. *)

val tile_options : Mdh_core.Md_hom.t -> dim:int -> int list
(** Candidate tile sizes for one dimension: powers of two up to the extent,
    plus the extent itself. *)

val parallel_dim_options : Mdh_core.Md_hom.t -> int list list
(** Candidate parallel-dimension subsets: every subset of the
    parallelisable dimensions that contains at least one dimension (when one
    exists), largest subsets first. Exponential in rank but rank <= 10 for
    the paper's workloads; capped at 4096 subsets. *)

val best_of :
  Mdh_core.Md_hom.t ->
  Mdh_machine.Device.t ->
  Cost.codegen ->
  Schedule.t list ->
  (Schedule.t * float) option
(** Pick the cheapest legal schedule by the cost model. *)
