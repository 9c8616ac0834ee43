(** Unboxed float kernels over [float array]s: the hand-specialised
    counterparts of what the MDH pipeline's code generator would emit for
    the linear-algebra workloads. Every kernel only reads its input arrays
    and returns a fresh result array.

    {!Fastpath} runs the dot, matvec and matmul kernels inside [Exec.run],
    directly on the inputs' fp32 stores ({!Mdh_tensor.Dense.floats}): dot
    sequentially on every pool, matvec and matmul row-parallel when the
    plan has a parallel level and the pool has workers. [matmul_seq] is
    the naive reference that [bench/calibrate.ml] times and the tests check
    the tiled variants against. [scripts/check.sh] fails if a kernel here
    is called neither from {!Fastpath} nor from [bench/calibrate.ml]. *)

val dot_seq : float array -> float array -> float

val matvec_seq : m:int -> k:int -> float array -> float array -> float array
(** Row-major [m x k] matrix times vector. *)

val matvec_par : Pool.t -> m:int -> k:int -> float array -> float array -> float array

val matmul_seq : m:int -> n:int -> k:int -> float array -> float array -> float array
(** Naive i-j-k triple loop, row-major [m x k] times [k x n]. *)

val matmul_tiled :
  ?tile:int -> m:int -> n:int -> k:int -> float array -> float array -> float array
(** Cache-blocked (i,j,k tiles, default 32). *)

val matmul_par :
  Pool.t -> ?tile:int -> m:int -> n:int -> k:int -> float array -> float array ->
  float array
(** Tiled with row-blocks distributed across the pool. *)
