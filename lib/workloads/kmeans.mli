(** K-means cluster assignment (nearest scaled centroid) — a data-mining
    catalogue extension beyond Figure 3.

    Each point is assigned the centroid minimising an inverse-variance
    scaled squared distance; ties fall back to the raw distance, then the
    lower cluster id, so the per-point reduction is a selection under a
    strict total order — associative and commutative, like {!Prl.prl_best},
    and equally inexpressible as a builtin OpenMP [reduction] operator.

    The body intentionally spells out its squared differences naively (each
    subtraction appears twice per square, and the scaled and unscaled sums
    repeat the squares): the workload is compute-bound under the cost
    model, so the common-subexpression elimination performed by
    [mdhc optimize] yields a modelled speed-up — this is one of the
    catalogue's pinned rewrite-improvement witnesses. *)

val assign_record_ty : Mdh_tensor.Scalar.ty
(** [{cluster_id:int64; score:fp64; dist:fp64}] *)

val nearest : Mdh_combine.Combine.custom_fn
(** Written as an expression body ({!Mdh_combine.Combine.of_body}) with
    [If], [Field] and comparisons, which the Specializer compiles. *)

val oracle_nearest :
  Mdh_tensor.Scalar.value -> Mdh_tensor.Scalar.value -> Mdh_tensor.Scalar.value
(** The same selection written by hand, which the workload's reference
    folds with, so that the oracle checks [nearest]'s body rather than
    sharing it. *)

val kmeans : Workload.t
