(** The low-level execution plan: the single executable IR every downstream
    consumer shares — the reproduction's counterpart of the MDH formalism's
    *low-level program representation* (paper footnote 5), which records the
    de/re-composition structure the lowering chose.

    The plan is a nest of levels, outermost first: parallel distribution of
    concatenation dimensions over device layers, cooperative tree reduction
    for a parallelised [pw] dimension, cache-tiled or plain sequential
    loops, accumulation for sequential reductions, running scans for [ps],
    and the point computation at the leaf.

    One plan, three consumers: [Exec.run] walks it to decompose the
    iteration space into boxes, [Cost.analyse_plan] prices it, and the
    codegen backends emit loop nests from it — so interpreter, cost model,
    and emitted C cannot disagree about loop structure by construction. *)

type level =
  | Distribute of {
      dims : int list;  (** cc dims linearised across a device layer *)
      extents : int list;  (** per-dim extents, aligned with [dims] *)
      over : string;
      units : int;
      points : int;
    }
  | Tree_reduce of { dim : int; op : string; items : int; extent : int }
      (** cooperative tree reduction over work items *)
  | Tile of { dim : int; tile : int; extent : int }
      (** cache-tile loop pair *)
  | Seq of { dim : int; extent : int }
      (** plain sequential loop *)
  | Accumulate of { dim : int; op : string; extent : int }
      (** sequential reduction fold *)
  | Scan of { dim : int; op : string; extent : int }
      (** running prefix scan *)

type t = {
  levels : level list;  (** outermost first *)
  point_flops : int;  (** scalar-function cost at the leaf *)
  tile_sizes : int array;  (** clamped to the extents — never larger *)
  parallel_dims : int list;  (** as given by the schedule *)
  used_layers : int list;  (** device layers the schedule occupies *)
  usable_units : int;  (** product of [max_units] over [used_layers] *)
  par_iters : int;  (** parallel iterations the schedule exposes *)
  device_name : string;
  hom_name : string;
}

(** How a dimension is executed, derived from the level that owns it. *)
type role =
  | Role_distribute  (** split across parallel units *)
  | Role_tree  (** parallel tree reduction *)
  | Role_seq  (** sequential (possibly tiled) concatenation loop *)
  | Role_accumulate  (** sequential reduction fold *)
  | Role_scan  (** sequential prefix scan *)

val build : Mdh_core.Md_hom.t -> Mdh_machine.Device.t -> Schedule.t -> (t, string) result
(** Fails iff the schedule is illegal. Counts under [lowering.plan.builds];
    go through {!Plan_cache.build} to avoid rebuilding in hot loops. *)

val sequential : Mdh_core.Md_hom.t -> t
(** The device-free all-sequential plan: every cc dim a [Seq] level, every
    reduction an [Accumulate]/[Scan]. Used by backends that emit portable
    sequential loop nests (e.g. the OpenMP C backend's loop skeleton). *)

val role : t -> int -> role
(** [role t d] is how dimension [d] executes under this plan. *)

val distributed : t -> (int * int) list
(** [(dim, extent)] pairs of the [Distribute] level, in dimension order;
    [[]] when nothing is distributed. *)

val tree : t -> (int * int * int) option
(** [(dim, extent, items)] of the [Tree_reduce] level, if any. *)

val tiled : t -> (int * int) list
(** [(dim, tile)] pairs of the [Tile] levels, in level order; a dimension
    appears iff the plan cache-tiles it ([tile < extent]). *)

val pp : Format.formatter -> t -> unit
(** Indented tree rendering. *)

val pp_level : Format.formatter -> level -> unit
(** One level of {!pp}'s rendering, without indentation — the label the
    profiler's tree view puts next to a level's measured time. *)

val parallelism : t -> int
(** Units of parallel work the plan actually achieves on its device:
    [par_iters] split evenly over [usable_units]. By construction this is
    the same number as [Cost.analyse]'s [achieved_units] for the same
    schedule (pinned by tests). *)

val depth : t -> int

val digest : t -> string
(** Stable structural fingerprint (CRC-32 hex of the canonical rendering).
    Changes iff the plan's structure changes; pinned by the
    plan-consistency stage in [scripts/check.sh]. *)
