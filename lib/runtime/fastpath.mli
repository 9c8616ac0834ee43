(** Dispatch from the plan to the unboxed flat-array kernels.

    When an MDH computation is structurally one of the linear-algebra
    workloads {!Kernels} hand-specialises — dot product, matrix-vector,
    matrix-matrix, all fp32 with builtin [+] reduction — the executor can
    skip the boxed interpreter entirely. The matchers are conservative:
    exact rank, combine operators, scalar-function shape, access patterns,
    types and extents must line up (multiplication operands in either
    order), otherwise {!Exec} tries the {!Specializer}. Completed kernel runs
    count under [runtime.kernels.fastpath_hits]; a kernel that raises
    (degraded pool, injected fault) counts under
    [runtime.kernels.fastpath_errors] and the dispatch returns [None] so
    the caller falls back to the next backend.

    Nothing is copied in and no element is boxed: the kernels read the
    inputs' fp32 stores in place ({!Mdh_tensor.Dense.floats}) and never
    write them, and the kernel's result is rounded with
    [Scalar.round_f32] straight into the output buffer's store.

    Kernels accumulate in double precision and round to fp32 once per
    element, so fast-path results agree with the per-op-rounding
    interpreter to float tolerance, not bit-exactly; [Exec.run
    ~fastpath:false] disables dispatch where bit-identity matters. *)

val try_run :
  Pool.t ->
  Mdh_lowering.Plan.t ->
  Mdh_core.Md_hom.t ->
  Mdh_tensor.Buffer.env ->
  Mdh_tensor.Buffer.env option
(** [try_run pool plan md env] is [Some env'] iff a kernel matched and ran
    (matvec and matmul in parallel when the plan distributes work and the
    pool has more than one worker; dot sequentially on every pool). [None] means no kernel applies — including when an input
    buffer is missing, mistyped or without a float store, so the
    reference can report the error. *)
