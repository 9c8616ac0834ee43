module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Index_fn = Mdh_tensor.Index_fn
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module Plan = Mdh_lowering.Plan
module Trace = Mdh_obs.Trace
module Metrics = Mdh_obs.Metrics

let m_hits = Metrics.counter "runtime.kernels.fastpath_hits"
let m_errors = Metrics.counter "runtime.kernels.fastpath_errors"

(* A kernel may only replace the interpreter when the combine operator is
   the builtin fp32 addition it hard-codes. *)
let is_fadd = function
  | Combine.Pw fn -> fn.Combine.builtin && String.equal fn.Combine.fn_name "add"
  | _ -> false

let is_cc = function Combine.Cc -> true | _ -> false

let idx name = Expr.Idx name

(* Multiplication commutes: a matcher must accept [x * y] written either
   way round, so offer both operand orders and let the pattern pick. *)
let mul_read_pairs = function
  | Expr.Binop (Expr.Mul, (Expr.Read _ as x), (Expr.Read _ as y)) ->
    [ (x, y); (y, x) ]
  | _ -> []

(* The float store of the input, read in place, when it exists under the
   matched name with exactly the fp32 type and shape the kernel assumes,
   both as declared and as supplied. *)
let f32_input (md : Md_hom.t) env name shape =
  let declared =
    List.exists
      (fun (i : Md_hom.input) ->
        String.equal i.inp_name name
        && Scalar.equal_ty i.inp_ty Scalar.Fp32
        && Shape.equal i.inp_shape shape)
      md.inputs
  in
  match Buffer.env_find_opt env name with
  | Some b
    when declared
         && Scalar.equal_ty (Buffer.ty b) Scalar.Fp32
         && Shape.equal (Buffer.shape b) shape ->
    Dense.floats (Buffer.data b)
  | _ -> None

let both a b = match (a, b) with Some x, Some y -> Some (x, y) | _ -> None

let f32_output (o : Md_hom.output) shape =
  Scalar.equal_ty o.out_ty Scalar.Fp32 && Shape.equal o.out_shape shape

(* [Scalar.round_f32], module-local so that it inlines: under -opaque a
   call into another module is out of line and boxes argument and result *)
let[@inline] round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* Write a flat kernel result into the float store of the (freshly
   allocated) output buffer, rounding to single precision once per element
   — kernels accumulate in double, so fast-path results are
   tolerance-equal, not bit-equal, to the per-op-rounding interpreter.
   [None] if the output has no float store. *)
let commit md env (o : Md_hom.output) (result : float array) =
  let env = Semantics.alloc_outputs md env in
  Option.map
    (fun (out : float array) ->
      for i = 0 to Array.length result - 1 do
        out.(i) <- round_f32 result.(i)
      done;
      env)
    (Dense.floats (Buffer.data (Buffer.env_find env o.out_name)))

type matched = {
  kernel : string;
  compute : parallel:bool -> float array;
  output : Md_hom.output;
}

let match_dot pool (md : Md_hom.t) env =
  match (md.combine_ops, md.outputs) with
  | [| op |], [ o ]
    when is_fadd op && f32_output o [| 1 |]
         && Index_fn.apply o.out_access.fn [| 0 |] = [| 0 |] -> (
    let k = md.sizes.(0) in
    let matched =
      List.find_map
        (function
          | Expr.Read (x, [ xi ]), Expr.Read (y, [ yi ])
            when xi = idx md.dims.(0) && yi = idx md.dims.(0) ->
            both (f32_input md env x [| k |]) (f32_input md env y [| k |])
          | _ -> None)
        (mul_read_pairs o.value)
    in
    match matched with
    | Some (xv, yv) ->
      Some
        { kernel = "dot";
          output = o;
          compute =
            (fun ~parallel ->
              [| (if parallel then Kernels.dot_par pool xv yv else Kernels.dot_seq xv yv) |]) }
    | None -> None)
  | _ -> None

let match_matvec pool (md : Md_hom.t) env =
  match (md.combine_ops, md.outputs) with
  | [| cc; pw |], [ o ]
    when is_cc cc && is_fadd pw
         && f32_output o [| md.sizes.(0) |]
         && o.out_access.exprs = [ idx md.dims.(0) ] -> (
    let m = md.sizes.(0) and k = md.sizes.(1) in
    let i = md.dims.(0) and kd = md.dims.(1) in
    let matched =
      List.find_map
        (function
          | Expr.Read (mat, [ mi; mk ]), Expr.Read (v, [ vk ])
            when mi = idx i && mk = idx kd && vk = idx kd ->
            both (f32_input md env mat [| m; k |]) (f32_input md env v [| k |])
          | _ -> None)
        (mul_read_pairs o.value)
    in
    match matched with
    | Some (mv, vv) ->
      Some
        { kernel = "matvec";
          output = o;
          compute =
            (fun ~parallel ->
              if parallel then Kernels.matvec_par pool ~m ~k mv vv
              else Kernels.matvec_seq ~m ~k mv vv) }
    | None -> None)
  | _ -> None

let match_matmul pool (md : Md_hom.t) env ~tile =
  match (md.combine_ops, md.outputs) with
  | [| cc0; cc1; pw |], [ o ]
    when is_cc cc0 && is_cc cc1 && is_fadd pw
         && f32_output o [| md.sizes.(0); md.sizes.(1) |]
         && o.out_access.exprs = [ idx md.dims.(0); idx md.dims.(1) ] -> (
    let m = md.sizes.(0) and n = md.sizes.(1) and k = md.sizes.(2) in
    let i = md.dims.(0) and j = md.dims.(1) and kd = md.dims.(2) in
    let matched =
      List.find_map
        (function
          | Expr.Read (a, [ ai; ak ]), Expr.Read (b, [ bk; bj ])
            when ai = idx i && ak = idx kd && bk = idx kd && bj = idx j ->
            both (f32_input md env a [| m; k |]) (f32_input md env b [| k; n |])
          | _ -> None)
        (mul_read_pairs o.value)
    in
    match matched with
    | Some (av, bv) ->
      Some
        { kernel = "matmul";
          output = o;
          compute =
            (fun ~parallel ->
              if parallel then Kernels.matmul_par pool ~tile ~m ~n ~k av bv
              else Kernels.matmul_tiled ~tile ~m ~n ~k av bv) }
    | None -> None)
  | _ -> None

let try_run pool (plan : Plan.t) (md : Md_hom.t) env =
  if Array.exists (fun s -> s = 0) md.sizes then None
  else begin
    (* reuse the plan's innermost cache tile for the blocked matmul kernel *)
    let tile =
      let r = Array.length plan.Plan.tile_sizes in
      if r = 0 then 32 else max 4 (min 256 plan.Plan.tile_sizes.(r - 1))
    in
    let matched =
      match match_dot pool md env with
      | Some m -> Some m
      | None -> (
        match match_matvec pool md env with
        | Some m -> Some m
        | None -> match_matmul pool md env ~tile)
    in
    match matched with
    | None -> None
    | Some { kernel; compute; output } ->
      let parallel =
        Pool.num_workers pool > 1
        && (Plan.distributed plan <> [] || Plan.tree plan <> None)
      in
      (* a hit is a kernel that *completed*: a raising kernel (degraded
         pool, injected fault) is counted separately and the caller falls
         back to the generic walker instead of aborting the run *)
      match
        Trace.with_span ~cat:"runtime" "exec.fastpath"
          ~args:[ ("kernel", kernel); ("hom", md.Md_hom.hom_name) ]
          (fun () ->
            Mdh_fault.Fault.hit "kernel.run";
            commit md env output (compute ~parallel))
      with
      | Some env' ->
        Metrics.incr m_hits;
        Some env'
      | None -> None
      | exception _ ->
        Metrics.incr m_errors;
        None
  end
