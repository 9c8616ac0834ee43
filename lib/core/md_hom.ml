module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Index_fn = Mdh_tensor.Index_fn
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module Analysis = Mdh_expr.Analysis

type access = {
  fn : Index_fn.t;
  exprs : Expr.t list;
}

type input = {
  inp_name : string;
  inp_ty : Scalar.ty;
  inp_shape : Shape.t;
  accesses : access list;
}

type output = {
  out_name : string;
  out_ty : Scalar.ty;
  out_shape : Shape.t;
  out_access : access;
  value : Expr.t;
}

type t = {
  hom_name : string;
  dims : string array;
  sizes : Shape.t;
  combine_ops : Combine.t array;
  inputs : input list;
  outputs : output list;
}

let rank t = Array.length t.dims

let reduction_dims t =
  Array.to_list t.combine_ops
  |> List.mapi (fun d op -> (d, op))
  |> List.filter_map (fun (d, op) -> if Combine.is_reduction op then Some d else None)

let cc_dims t =
  Array.to_list t.combine_ops
  |> List.mapi (fun d op -> (d, op))
  |> List.filter_map (fun (d, op) -> if Combine.is_reduction op then None else Some d)

let result_shape t =
  Array.mapi (fun d n -> Combine.result_extent t.combine_ops.(d) n) t.sizes

let find_input t name = List.find_opt (fun i -> String.equal i.inp_name name) t.inputs

let total_points t = Shape.num_elements t.sizes

let flops_per_point t =
  List.fold_left (fun acc o -> acc + Analysis.flops o.value) 0 t.outputs

let bytes_read_per_point t =
  List.fold_left
    (fun acc i -> acc + (List.length i.accesses * Scalar.size_bytes i.inp_ty))
    0 t.inputs

let bytes_written t =
  List.fold_left
    (fun acc o -> acc + (Shape.num_elements o.out_shape * Scalar.size_bytes o.out_ty))
    0 t.outputs

let input_bytes t =
  List.fold_left
    (fun acc i -> acc + (Shape.num_elements i.inp_shape * Scalar.size_bytes i.inp_ty))
    0 t.inputs

type characteristics = {
  iter_space_rank : int;
  n_reduction_dims : int;
  injective_accesses : bool option;
  n_inputs : int;
  n_outputs : int;
}

let characteristics t =
  (* Figure 3's "Inj." column: no input element is touched by two distinct
     iteration points. A buffer with several textual accesses (a stencil
     family) re-reads elements across offsets, so it is non-injective even
     when each access alone is. *)
  let injective =
    List.fold_left
      (fun acc input ->
        if List.length input.accesses > 1 then Some false
        else
          List.fold_left
            (fun acc access ->
              match (acc, Index_fn.injective_on access.fn t.sizes) with
              | Some false, _ -> Some false
              | _, Some false -> Some false
              | None, _ | _, None -> None
              | Some true, Some true -> Some true)
            acc input.accesses)
      (Some true) t.inputs
  in
  { iter_space_rank = rank t;
    n_reduction_dims = List.length (reduction_dims t);
    injective_accesses = injective;
    n_inputs = List.length t.inputs;
    n_outputs = List.length t.outputs }

let pp ppf t =
  Format.fprintf ppf "@[<v>md_hom %s:@," t.hom_name;
  Format.fprintf ppf "  iteration space: %s over (%s)@," (Shape.to_string t.sizes)
    (String.concat "," (Array.to_list t.dims));
  Format.fprintf ppf "  combine ops: (%s)@,"
    (String.concat ", " (Array.to_list (Array.map Combine.name t.combine_ops)));
  List.iter
    (fun o ->
      Format.fprintf ppf "  out %s : %a %s via %a = %a@," o.out_name Scalar.pp_ty o.out_ty
        (Shape.to_string o.out_shape) Index_fn.pp o.out_access.fn Expr.pp o.value)
    t.outputs;
  List.iter
    (fun i ->
      Format.fprintf ppf "  inp %s : %a %s via [%a]@," i.inp_name Scalar.pp_ty i.inp_ty
        (Shape.to_string i.inp_shape)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           (fun ppf a -> Index_fn.pp ppf a.fn))
        i.accesses)
    t.inputs;
  Format.fprintf ppf "@]"
