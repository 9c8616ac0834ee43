(** Executable semantics of the MDH high-level representation.

    Three interchangeable evaluators, used to cross-validate each other:

    - {!reference}: the paper's equation
      [⊗_1 ... ⊗_D f(a[i_1..i_D])] materialised directly — a pointwise
      tensor over the whole iteration space, reduced axis by axis
      (innermost first). Memory-hungry; the executable definition.
    - {!exec}: an in-place sequential executor — accumulates [pw] dimensions
      during iteration and post-scans [ps] dimensions. Linear memory;
      agrees with {!reference} for associative customising functions
      (property-tested).
    - {!eval_tiled}: evaluates the computation tile by tile and recombines
      partial results with {!Mdh_combine.Combine.combine_partials} — the MDH
      decomposition law that justifies every tiling the lowering performs.
      Agrees with {!reference} for any tile sizes (property-tested). *)

module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense

exception Semantic_error of string

val alloc_outputs : Md_hom.t -> Buffer.env -> Buffer.env
(** Extend an input environment with freshly-allocated (zeroed) output
    buffers. Raises [Semantic_error] if an input buffer is missing or its
    shape/type disagrees with the representation. *)

val reference : Md_hom.t -> Buffer.env -> Buffer.env
(** Evaluate by the definitional semantics; returns the environment extended
    with the computed outputs. Intended for small iteration spaces. *)

val exec : Md_hom.t -> Buffer.env -> Buffer.env
(** In-place sequential execution; linear in output size. Raises
    [Semantic_error] where {!alloc_outputs} does, and on an input element
    not of its buffer's type (a record that lacks a declared field, say). *)

val eval_tiled : Md_hom.t -> Buffer.env -> tile_sizes:int array -> Buffer.env
(** Evaluate tile-wise with partial-result recombination. [tile_sizes] gives
    the tile extent per dimension (clamped to the extents; every positive
    value is legal). *)

val result_tensor : Md_hom.t -> Buffer.env -> string -> Dense.t
(** Convenience: the data of a named output buffer in a result env. *)
