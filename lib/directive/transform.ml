module Md_hom = Mdh_core.Md_hom

let of_elab ~name (e : Validate.elab) =
  { Md_hom.hom_name = name;
    dims = e.el_dims;
    sizes = e.el_sizes;
    combine_ops = e.el_combine_ops;
    inputs =
      List.map
        (fun (i : Validate.einp) ->
          { Md_hom.inp_name = i.ei_name;
            inp_ty = i.ei_ty;
            inp_shape = i.ei_shape;
            accesses =
              List.map (fun (exprs, fn) -> { Md_hom.fn; exprs }) i.ei_accesses })
        e.el_inps;
    outputs =
      List.map
        (fun (o : Validate.eout) ->
          { Md_hom.out_name = o.eo_name;
            out_ty = o.eo_ty;
            out_shape = o.eo_shape;
            out_access = { Md_hom.fn = o.eo_fn; exprs = o.eo_indices };
            value = o.eo_value })
        e.el_outs }

let to_md_hom (dir : Directive.t) =
  Result.map (of_elab ~name:dir.dir_name) (Validate.elaborate dir)
  |> Result.map_error List.hd

let to_md_hom_exn dir =
  match to_md_hom dir with
  | Ok md -> md
  | Error e -> invalid_arg (Validate.error_to_string e)
