module Scalar = Mdh_tensor.Scalar
module Index_fn = Mdh_tensor.Index_fn
module Md_hom = Mdh_core.Md_hom
module Combine = Mdh_combine.Combine
module Plan = Mdh_lowering.Plan
module Device = Mdh_machine.Device

type dialect = {
  dialect_name : string;
  kernel_qualifier : string;
  global_ptr : string;  (** qualifier for global-memory pointers *)
  local_mem : string;  (** shared/local memory storage qualifier *)
  group_id : string;
  local_id : string;
  local_size_expr : string;
  barrier : string;
  prelude : string;
}

let cuda =
  { dialect_name = "CUDA";
    kernel_qualifier = "__global__ void";
    global_ptr = "";
    local_mem = "__shared__";
    group_id = "blockIdx.x";
    local_id = "threadIdx.x";
    local_size_expr = "blockDim.x";
    barrier = "__syncthreads();";
    prelude = "#include <cuda_runtime.h>\n" }

let opencl =
  { dialect_name = "OpenCL";
    kernel_qualifier = "__kernel void";
    global_ptr = "__global ";
    local_mem = "__local";
    group_id = "get_group_id(0)";
    local_id = "get_local_id(0)";
    local_size_expr = "get_local_size(0)";
    barrier = "barrier(CLK_LOCAL_MEM_FENCE);";
    prelude = "" }

type error =
  | Unsupported of string
  | Illegal_schedule of string

let pp_error ppf = function
  | Unsupported m -> Format.fprintf ppf "codegen unsupported: %s" m
  | Illegal_schedule m -> Format.fprintf ppf "illegal schedule: %s" m

exception Error of error

let buf = Buffer.create 4096
let line fmt = Format.kasprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt

(* classification of dimensions under a schedule *)
type dim_kind =
  | Par_cc  (** parallel concatenation: decomposed from the hardware id *)
  | Par_red_tree  (** the tree-reduced pw dimension *)
  | Seq_cc  (** sequential concatenation: tiled loops *)
  | Seq_red of Combine.custom_fn  (** sequential pw: accumulate *)
  | Seq_scan of Combine.custom_fn  (** ps: running scan *)

let classify (md : Md_hom.t) (plan : Plan.t) =
  let rank = Md_hom.rank md in
  Array.init rank (fun d ->
      match (Plan.role plan d, md.combine_ops.(d)) with
      | Plan.Role_distribute, _ -> Par_cc
      | Plan.Role_tree, _ -> Par_red_tree
      | Plan.Role_seq, _ -> Seq_cc
      | Plan.Role_accumulate, Combine.Pw fn -> Seq_red fn
      | Plan.Role_scan, Combine.Ps fn -> Seq_scan fn
      | (Plan.Role_accumulate | Plan.Role_scan), _ ->
        (* the plan only assigns reduction roles to reduction dims *)
        assert false)

let launch_config (plan : Plan.t) =
  let par_cc_total =
    List.fold_left (fun acc (_, extent) -> acc * extent) 1 (Plan.distributed plan)
  in
  match Plan.tree plan with
  | Some (_td, _extent, items) -> (max 1 par_cc_total, max 1 items)
  | None ->
    (max 1 (Mdh_support.Util.ceil_div par_cc_total 256), max 1 (min 256 par_cc_total))

let sanitize name =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') then c else '_')
    (String.lowercase_ascii name)

let kernel_name (md : Md_hom.t) = "mdh_" ^ sanitize md.hom_name

let generate dialect (md : Md_hom.t) (dev : Device.t) sched =
  match Plan.build md dev sched with
  | Error msg -> Result.error (Illegal_schedule msg)
  | Ok plan -> (
    try
      let has_ps =
        Array.exists (function Combine.Ps _ -> true | _ -> false) md.combine_ops
      in
      let has_pw =
        Array.exists (function Combine.Pw _ -> true | _ -> false) md.combine_ops
      in
      if has_ps && has_pw then
        raise
          (Error
             (Unsupported "a computation mixing ps and pw combine operators"));
      if
        Array.length (Array.of_list (List.filter (fun (o : Md_hom.output) ->
             not (Index_fn.is_affine o.out_access.fn)) md.outputs)) > 0
      then raise (Error (Unsupported "non-affine output accesses"));
      let kinds = classify md plan in
      let rank = Md_hom.rank md in
      let dims = md.dims in
      let ctx = C_like.prepare md in
      Buffer.clear buf;

      (* --- header --- *)
      line "/* %s kernel for %s, generated by the MDH pipeline reproduction." dialect.dialect_name md.hom_name;
      line "   device: %s" dev.Device.device_name;
      line "   schedule: tiles=%s parallel=[%s] layers=[%s] */"
        (Mdh_support.Util.string_of_dims plan.Plan.tile_sizes)
        (String.concat "," (List.map string_of_int plan.Plan.parallel_dims))
        (String.concat "," (List.map string_of_int plan.Plan.used_layers));
      if dialect.prelude <> "" then line "%s" dialect.prelude;
      line "%s" C_like.min_max_prelude;
      let struct_defs = C_like.struct_defs ctx in
      if struct_defs <> "" then line "%s" struct_defs;
      (* notes for user-supplied combiners *)
      Array.iter
        (fun op ->
          match Combine.custom_fn_of op with
          | Some fn -> (
            match C_like.custom_combiner_note fn with
            | Some note -> line "%s" note
            | None -> ())
          | None -> ())
        md.combine_ops;

      (* --- signature --- *)
      let params =
        List.map
          (fun (o : Md_hom.output) ->
            dialect.global_ptr ^ C_like.buffer_param ctx ~const:false o.out_name o.out_ty)
          md.outputs
        @ List.map
            (fun (i : Md_hom.input) ->
              dialect.global_ptr ^ C_like.buffer_param ctx i.inp_name i.inp_ty)
            md.inputs
      in
      line "%s mdh_%s(%s)" dialect.kernel_qualifier (sanitize md.hom_name)
        (String.concat ", " params);
      line "{";

      (* --- the parallel cc subspace, decomposed from the hardware id --- *)
      let par_cc = List.filter (fun d -> kinds.(d) = Par_cc) (List.init rank Fun.id) in
      let par_cc_total =
        List.fold_left (fun acc d -> acc * md.sizes.(d)) 1 par_cc
      in
      let tree_dim =
        Array.to_list kinds
        |> List.mapi (fun d k -> (d, k))
        |> List.find_opt (fun (_, k) -> k = Par_red_tree)
        |> Option.map fst
      in
      let body = Buffer.create 1024 in
      let bl fmt =
        Format.kasprintf
          (fun s ->
            if s <> "" then Buffer.add_string body "  ";
            Buffer.add_string body s;
            Buffer.add_char body '\n')
          fmt
      in
      (match tree_dim with
      | None ->
        bl "const int mdh_g = %s * %s + %s;" dialect.group_id dialect.local_size_expr
          dialect.local_id;
        bl "if (mdh_g >= %d) return;" par_cc_total
      | Some _ ->
        (* one group per parallel-cc point; items cooperate on the reduction *)
        bl "const int mdh_g = %s;" dialect.group_id;
        bl "const int mdh_t = %s;" dialect.local_id;
        bl "const int mdh_l = %s;" dialect.local_size_expr;
        bl "if (mdh_g >= %d) return;" par_cc_total);
      (* decompose mdh_g into the parallel cc indices *)
      let rest = ref "mdh_g" in
      List.iteri
        (fun pos d ->
          let remaining =
            List.filteri (fun i _ -> i > pos) par_cc
            |> List.fold_left (fun acc d' -> acc * md.sizes.(d')) 1
          in
          if remaining = 1 then bl "const int %s = %s;" dims.(d) !rest
          else begin
            bl "const int %s = %s / %d;" dims.(d) !rest remaining;
            let fresh = Printf.sprintf "mdh_r%d" pos in
            bl "const int %s = %s %% %d;" fresh !rest remaining;
            rest := fresh
          end)
        par_cc;
      bl "";

      (* --- loop scaffolding --- *)
      let emit_ctx = ctx in
      let fresh_counter = ref 0 in
      let fresh () =
        incr fresh_counter;
        Printf.sprintf "mdh_tmp%d" !fresh_counter
      in
      let seq_cc = List.filter (fun d -> kinds.(d) = Seq_cc) (List.init rank Fun.id) in
      let seq_red =
        List.filter
          (fun d -> match kinds.(d) with Seq_red _ -> true | _ -> false)
          (List.init rank Fun.id)
      in
      let scan_dims =
        List.filter
          (fun d -> match kinds.(d) with Seq_scan _ -> true | _ -> false)
          (List.init rank Fun.id)
      in
      (* emit plain (optionally tiled) for-loops via a string builder with
         explicit indentation levels *)
      let depth = ref 1 in
      let emit fmt =
        Format.kasprintf
          (fun s ->
            Buffer.add_string body (String.make (2 * !depth) ' ');
            Buffer.add_string body s;
            Buffer.add_char body '\n')
          fmt
      in
      let open_for d ~lo ~hi ~step =
        emit "for (int %s = %s; %s < %s; %s += %s) {" dims.(d) lo dims.(d) hi dims.(d) step;
        incr depth
      in
      let open_tiled d =
        let extent = md.sizes.(d) and tile = plan.Plan.tile_sizes.(d) in
        if tile < extent then begin
          emit "for (int %s_tile = 0; %s_tile < %d; %s_tile += %d) {  /* cache tile */"
            dims.(d) dims.(d) extent dims.(d) tile;
          incr depth;
          emit "for (int %s = %s_tile; %s < mdh_min(%s_tile + %d, %d); %s++) {" dims.(d)
            dims.(d) dims.(d) dims.(d) tile extent dims.(d);
          incr depth;
          2
        end
        else begin
          open_for d ~lo:"0" ~hi:(string_of_int extent) ~step:"1";
          1
        end
      in
      let close n =
        for _ = 1 to n do
          decr depth;
          emit "}"
        done
      in

      (* outer sequential cc loops *)
      let cc_opened = List.map open_tiled seq_cc in

      (* output accumulators *)
      let acc_name (o : Md_hom.output) = "mdh_acc_" ^ sanitize o.out_name in
      let emit_value_into locals_target (o : Md_hom.output) index_of =
        let { C_like.decls; expr } = C_like.emit_expr emit_ctx ~fresh ~index_of o.value in
        List.iter (fun d -> emit "%s" d) decls;
        emit "%s" (locals_target expr)
      in
      let index_identity name = name in
      (* the output element written: collapsed (pw) dimensions index at
         zero, since their iteration variables are not in scope there *)
      let index_out name =
        match Array.find_index (String.equal name) dims with
        | Some d when Combine.collapses md.combine_ops.(d) -> "0"
        | _ -> name
      in
      let out_ref (o : Md_hom.output) =
        C_like.linearize o.out_name o.out_shape
          (List.map
             (fun e -> (C_like.emit_expr emit_ctx ~fresh ~index_of:index_out e).C_like.expr)
             o.out_access.exprs)
      in

      (match (tree_dim, scan_dims) with
      | Some td, _ ->
        (* cooperative tree reduction over dimension td *)
        let fn =
          match md.combine_ops.(td) with
          | Combine.Pw fn -> fn
          | _ -> assert false
        in
        List.iter
          (fun (o : Md_hom.output) ->
            emit "%s mdh_part_%s;" (C_like.c_type ctx o.out_ty) (sanitize o.out_name))
          md.outputs;
        emit "int mdh_has = 0;";
        open_for td ~lo:"mdh_t" ~hi:(string_of_int md.sizes.(td)) ~step:"mdh_l";
        (* inner sequential reduction dims *)
        let red_opened = List.map open_tiled (List.filter (( <> ) td) seq_red) in
        List.iter
          (fun (o : Md_hom.output) ->
            let part = "mdh_part_" ^ sanitize o.out_name in
            let { C_like.decls; expr } =
              C_like.emit_expr emit_ctx ~fresh ~index_of:index_identity o.value
            in
            List.iter (fun d -> emit "%s" d) decls;
            emit "%s = mdh_has ? %s : %s;" part
              (C_like.combine_exprs fn part expr)
              expr)
          md.outputs;
        emit "mdh_has = 1;";
        List.iter close red_opened;
        close 1;
        (* tree combine in local memory *)
        List.iter
          (fun (o : Md_hom.output) ->
            let part = "mdh_part_" ^ sanitize o.out_name in
            let shmem = "mdh_sh_" ^ sanitize o.out_name in
            emit "%s %s %s[256];" dialect.local_mem (C_like.c_type ctx o.out_ty) shmem;
            emit "%s unsigned char %s_has[256];" dialect.local_mem shmem;
            emit "%s[mdh_t] = %s;" shmem part;
            emit "%s_has[mdh_t] = mdh_has;" shmem;
            emit "%s" dialect.barrier;
            emit "for (int mdh_s = mdh_l / 2; mdh_s > 0; mdh_s >>= 1) {";
            incr depth;
            emit "if (mdh_t < mdh_s && %s_has[mdh_t + mdh_s]) {" shmem;
            incr depth;
            emit "%s[mdh_t] = %s_has[mdh_t] ? %s : %s[mdh_t + mdh_s];" shmem shmem
              (C_like.combine_exprs fn
                 (Printf.sprintf "%s[mdh_t]" shmem)
                 (Printf.sprintf "%s[mdh_t + mdh_s]" shmem))
              shmem;
            emit "%s_has[mdh_t] = 1;" shmem;
            close 1;
            emit "%s" dialect.barrier;
            close 1;
            emit "if (mdh_t == 0) {";
            incr depth;
            emit "%s = %s[0];" (out_ref o) shmem;
            close 1)
          md.outputs
      | None, [] when seq_red <> [] || not has_pw ->
        (* sequential accumulation (or pure map) *)
        List.iter
          (fun (o : Md_hom.output) ->
            if seq_red <> [] then begin
              emit "%s %s;" (C_like.c_type ctx o.out_ty) (acc_name o);
              emit "int mdh_has_%s = 0;" (sanitize o.out_name)
            end)
          md.outputs;
        let red_opened = List.map open_tiled seq_red in
        List.iter
          (fun (o : Md_hom.output) ->
            if seq_red = [] then
              emit_value_into
                (fun expr -> Printf.sprintf "%s = %s;" (out_ref o) expr)
                o index_identity
            else begin
              let fn =
                match
                  List.find_map
                    (fun d ->
                      match kinds.(d) with Seq_red fn -> Some fn | _ -> None)
                    seq_red
                with
                | Some fn -> fn
                | None -> assert false
              in
              emit_value_into
                (fun expr ->
                  Printf.sprintf "%s = mdh_has_%s ? %s : %s; mdh_has_%s = 1;" (acc_name o)
                    (sanitize o.out_name)
                    (C_like.combine_exprs fn (acc_name o) expr)
                    expr (sanitize o.out_name))
                o index_identity
            end)
          md.outputs;
        List.iter close red_opened;
        if seq_red <> [] then
          List.iter
            (fun (o : Md_hom.output) -> emit "%s = %s;" (out_ref o) (acc_name o))
            md.outputs
      | None, sd :: _ ->
        (* running scan over the ps dimension *)
        let fn =
          match kinds.(sd) with Seq_scan fn -> fn | _ -> assert false
        in
        List.iter
          (fun (o : Md_hom.output) ->
            emit "%s %s;" (C_like.c_type ctx o.out_ty) (acc_name o))
          md.outputs;
        open_for sd ~lo:"0" ~hi:(string_of_int md.sizes.(sd)) ~step:"1";
        List.iter
          (fun (o : Md_hom.output) ->
            emit_value_into
              (fun expr ->
                Printf.sprintf "%s = (%s == 0) ? %s : %s;" (acc_name o) dims.(sd) expr
                  (C_like.combine_exprs fn (acc_name o) expr))
              o index_identity;
            emit "%s = %s;  /* inclusive scan */" (out_ref o) (acc_name o))
          md.outputs;
        close 1
      | None, [] -> assert false);

      List.iter close cc_opened;
      Buffer.add_string buf (Buffer.contents body);
      line "}";

      (* --- launch note --- *)
      let groups, items = launch_config plan in
      line "";
      line "/* launch configuration: %d group(s) x %d item(s) */" groups items;
      Ok (Buffer.contents buf)
    with
    | Error e -> Result.error e
    | Invalid_argument msg -> Result.error (Unsupported msg))
