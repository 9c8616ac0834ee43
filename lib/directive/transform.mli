(** Transformation of a validated MDH directive into the MDH DSL's high-level
    program representation (Section 4.3, Figures 1 and 2).

    The data-centric part (Figure 1) instantiates [out_view]/[inp_view] from
    the directive's buffer accesses; the computation-centric part (Figure 2)
    instantiates [md_hom] from the loop nest's extents, the assigned scalar
    function and the [combine_ops] clause. The result feeds the existing
    MDH pipeline (lowering, auto-tuning, execution). *)

val of_elab : name:string -> Validate.elab -> Mdh_core.Md_hom.t
(** The [md_hom] named [name] for an elaborated directive. *)

val to_md_hom : Directive.t -> (Mdh_core.Md_hom.t, Validate.error) result
(** Validates and transforms; on failure, the first violation
    [Validate.elaborate] reports. *)

val to_md_hom_exn : Directive.t -> Mdh_core.Md_hom.t
(** Raises [Invalid_argument] with the rendered validation error. *)
