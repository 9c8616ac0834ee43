(** The evaluation line-up of Figure 4. *)

val gpu_baselines : Common.system list
(** OpenACC, PPCG, TVM, vendor (cuBLAS/cuDNN) — the GPU comparison set. *)

val cpu_baselines : Common.system list
(** OpenMP, Pluto, Numba, TVM, vendor (oneMKL/oneDNN). *)

val baselines_for : Mdh_machine.Device.t -> Common.system list

val mdh : Common.system
