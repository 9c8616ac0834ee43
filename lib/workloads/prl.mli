(** Probabilistic Record Linkage (PRL) — the data-mining case study
    (Listing 11; Rasch et al., SAC '19), which finds, for each new record,
    its best match among the existing entries of a cancer registry.

    Reproduction notes:

    - The paper uses real data from the German EKR cancer registry [19],
      which is not redistributable; {!Workload.t.gen} synthesises a registry
      with the same structure — per-record attribute codes (name, birth
      year, sex, postal region) — and injects noisy duplicates, so the
      custom-reduction code path and the dimension ratios of Figure 3
      (2^10/2^15 new x 2^15 existing) are exercised faithfully.
    - The paper's Listing 11 returns three flat output buffers (match_id,
      match_weight, id_measure) combined atomically by [prl_max]; this
      implementation returns one record-typed buffer with the same three
      fields, which is the same object without the flattening.
    - [prl_best], the customising function, selects the better match by
      (weight, certainty measure, lower id) — a strict total order over all
      record fields, hence associative and commutative — but crucially not
      expressible as an OpenMP/OpenACC [reduction] clause (those only know
      builtin scalar operators): the capability gap Section 5.2's PRL
      discussion rests on. *)

val match_record_ty : Mdh_tensor.Scalar.ty
(** [{match_id:int64; match_weight:fp64; id_measure:int32}] *)

val prl_best : Mdh_combine.Combine.custom_fn
(** Written as an expression body ({!Mdh_combine.Combine.of_body}) with
    [If], [Field] and comparisons, which the Specializer compiles. *)

val oracle_best :
  Mdh_tensor.Scalar.value -> Mdh_tensor.Scalar.value -> Mdh_tensor.Scalar.value
(** The same selection written by hand, which the workload's reference
    folds with, so that the oracle checks [prl_best]'s body rather than
    sharing it. *)

val certain_measure : int
(** The id_measure code for an all-attributes match (the paper's 14). *)

val prl : Workload.t
