(** A stub: no kernel runs in place of the plan.

    {!Exec} dispatches to two executors, the {!Specializer} and the
    reference {!Mdh_core.Semantics.exec}; the hand-written dot, matvec
    and matmul kernels this module once matched are gone, since the
    Specializer folds a [read * read] row in one loop per strip. The stub
    is kept only for the benchmark harness under [perf/], which compiles
    against it (it names this function for a backend that now serves no
    call); it goes once that harness no longer names it. *)

val try_run :
  Pool.t ->
  Mdh_lowering.Plan.t ->
  Mdh_core.Md_hom.t ->
  Mdh_tensor.Buffer.env ->
  Mdh_tensor.Buffer.env option
(** Always [None]. *)
