(** Compile-and-run harness for the {!Openmp_c} backend: the first
    end-to-end proof that the C we generate computes the right answer.

    When [gcc] is on PATH, the generated kernel is wrapped in a small
    driver translation unit (raw-fp32 file I/O for every buffer, written
    from and read back into the buffers' fp32 stores directly), built
    with [-O3 -fopenmp] into a temp-dir binary, and executed against the
    caller's buffers — so the compiled C can be differentially checked
    against {!Mdh_core.Semantics.exec} (tolerance-equal: the kernel
    accumulates in C [float] with OpenMP's reduction reassociation, the
    interpreter rounds per operation).

    Eligibility mirrors what the generated C can express standalone: one
    fp32 output, fp32 inputs, at most one reduction loop ({!Openmp_c}'s
    Listing 2 shape), builtin reduction operators only (a custom operator
    would need a host-supplied combiner to link). *)

type t
(** A built driver binary (plus its temp files) for one computation. *)

val available : unit -> bool
(** Whether [gcc] is on PATH (probed once per process). *)

val build : Mdh_core.Md_hom.t -> (t, string) result
(** Generate, emit and compile. Fails when gcc is missing, the computation
    is ineligible, or compilation fails (with the compiler log). *)

val run : t -> Mdh_tensor.Buffer.env -> (Mdh_tensor.Buffer.env, string) result
(** Execute the built binary on the environment's input buffers; returns
    the environment extended with the computed output. Reusable: one build
    may run many times. *)

val cleanup : t -> unit
(** Remove the temp source/binary/log files. *)

val execute :
  Mdh_core.Md_hom.t ->
  Mdh_tensor.Buffer.env ->
  (Mdh_tensor.Buffer.env, string) result
(** [build] + [run] + [cleanup] in one step. *)

val source : t -> string
(** The full driver translation unit (kernel included), for inspection. *)
