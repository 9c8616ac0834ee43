(** Unboxed float kernels over [float array]s: hand-written matmul and
    matvec loops that [bench/calibrate.ml] times to calibrate the host's
    cost model (its compute peak, the gain from cache tiling and from the
    pool's [parallel_for]). No plan runs them: {!Exec} dispatches only to
    the {!Specializer} and the reference. Every kernel only reads its
    input arrays and returns a fresh result array. [scripts/check.sh]
    fails if a kernel here is not called from [bench/calibrate.ml]. *)

val matvec_seq : m:int -> k:int -> float array -> float array -> float array
(** Row-major [m x k] matrix times vector. *)

val matvec_par : Pool.t -> m:int -> k:int -> float array -> float array -> float array
(** [matvec_seq] with its rows distributed across the pool. *)

val matmul_seq : m:int -> n:int -> k:int -> float array -> float array -> float array
(** Naive i-j-k triple loop, row-major [m x k] times [k x n]. *)

val matmul_tiled :
  ?tile:int -> m:int -> n:int -> k:int -> float array -> float array -> float array
(** Cache-blocked (i,j,k tiles, default 32). *)
