(** Analytic execution-cost model: an MDH computation under a schedule on a
    device.

    The model charges (i) scalar work against the device's compute roof
    scaled by achieved parallel utilisation, vectorisation quality and a
    code-generation efficiency profile; (ii) memory traffic per hierarchy
    level, derived from tile working sets (a tile whose working set fits a
    level streams its footprint once across that level's boundary; one that
    does not pays the untiled per-access traffic); (iii) partial-result
    combination for parallelised reduction dimensions (tree combine for
    [pw], two-phase scan for [ps]); and (iv) launch overheads and — when
    requested — host-link transfers.

    All relative effects in Figure 4 (tiling wins, reduction-parallelisation
    wins, under-utilisation collapses, shape sensitivity) emerge from (i)-(iii);
    the codegen profile only sets each system's baseline quality. *)

type codegen = {
  cg_name : string;
  base_compute_eff : float;  (** inner-loop pipeline quality, in (0,1] *)
  base_bw_eff : float;  (** achieved fraction of peak bandwidth, in (0,1] *)
}

val tuned_codegen : codegen
(** Auto-tuned generated code (MDH after ATF search, Section 5: 12h budget). *)

val good_codegen : codegen
(** Solid static compiler output (polyhedral compilers, TVM). *)

val plain_codegen : codegen
(** Straightforward OpenMP/OpenACC-style compiler output. *)

val jit_codegen : codegen
(** JIT output with Python-driven glue (Numba). *)

type analysis = {
  stats : Mdh_machine.Roofline.stats;
  efficiency : Mdh_machine.Roofline.efficiency;
  breakdown : Mdh_machine.Roofline.breakdown;
  achieved_units : int;  (** concurrent units actually kept busy *)
  tile_working_set_bytes : int;
  n_tiles : int;
}

val analyse_plan :
  ?include_transfers:bool ->
  Mdh_core.Md_hom.t ->
  Mdh_machine.Device.t ->
  codegen ->
  Plan.t ->
  analysis
(** Price an already-built plan: the plan carries the achieved parallelism,
    clamped tile sizes and layer occupancy, so the cost model no longer
    re-derives structure from the raw schedule. [achieved_units] equals
    {!Plan.parallelism} by construction. [include_transfers] (default
    false) adds host-link traffic for all input and output buffers. *)

val analyse :
  ?include_transfers:bool ->
  Mdh_core.Md_hom.t ->
  Mdh_machine.Device.t ->
  codegen ->
  Schedule.t ->
  (analysis, string) result
(** [analyse_plan] over the schedule's plan (built by {!Plan.build});
    [Error] iff the schedule is illegal for the computation. *)

type level_share = {
  ls_path : string;  (** profiler path of the level: ["L0"].. or ["leaf"] *)
  ls_label : string;  (** human label, {!Plan.pp_level}'s rendering *)
  ls_fraction : float;  (** model-attributed share of the run, in [0,1] *)
}

val level_attribution : Plan.t -> level_share list
(** The model's time attribution across a plan's levels: each level is
    charged one unit per entry of its loop body (the running product of
    enclosing iteration counts), the leaf additionally carries the
    scalar-function flops per point. Fractions sum to 1; one entry per
    plan level, outermost first, the leaf last — paths match the
    profiler's, so measured and modelled shares line up row by row. *)

val seconds :
  ?include_transfers:bool ->
  Mdh_core.Md_hom.t ->
  Mdh_machine.Device.t ->
  codegen ->
  Schedule.t ->
  (float, string) result
(** Estimated wall-clock seconds ([analyse] total). *)
