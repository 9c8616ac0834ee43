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
module Memo = Mdh_support.Memo
module Trace = Mdh_obs.Trace
module Metrics = Mdh_obs.Metrics
module Clock = Mdh_obs.Clock
module Profile = Mdh_obs.Profile

exception Unsupported of string

let unsup fmt = Format.kasprintf (fun m -> raise (Unsupported m)) fmt

(* --- per-job evaluation state ---------------------------------------- *)

(* Compilation happens once per plan digest; instantiation happens once per
   job. A compiled expression is a two-stage closure: applied to a [state]
   it resolves buffers and local-variable cells, returning the per-point
   thunk the loop nest calls — no boxing, no environment lookups, no index
   tensors on the hot path. *)
type state = {
  bufs : float array array;  (** one flat array per input, in [md.inputs] order *)
  point : int array;  (** current iteration point, length = rank *)
  base : int array;  (** cache-tile block origins, one slot per Tile level *)
  fcells : float array;  (** [Let]-bound float locals *)
  icells : int array;  (** [Let]-bound integer locals *)
  bcells : bool array;  (** [Let]-bound boolean locals *)
}

type 'a inst = state -> unit -> 'a

type builder = BF of float inst | BI of int inst | BB of bool inst

type slots = { mutable nf : int; mutable ni : int; mutable nb : int }

type binding = Slot_f of int | Slot_i of int | Slot_b of int

(* --- expression compilation ------------------------------------------ *)

let row_major_strides shape =
  let r = Array.length shape in
  let s = Array.make r 1 in
  for d = r - 2 downto 0 do
    s.(d) <- s.(d + 1) * shape.(d + 1)
  done;
  s

let lift_f = function
  | BF f -> f
  | BI f -> fun st -> let g = f st in fun () -> float_of_int (g ())
  | BB _ -> unsup "boolean used where a number is required"

let as_i = function BI f -> f | _ -> unsup "non-integer index expression"
let as_b = function BB f -> f | _ -> unsup "non-boolean condition"

(* Run [pre] (a cell store) before the body thunk, preserving its kind. *)
let with_pre pre = function
  | BF f -> BF (fun st -> let p = pre st and g = f st in fun () -> p (); g ())
  | BI f -> BI (fun st -> let p = pre st and g = f st in fun () -> p (); g ())
  | BB f -> BB (fun st -> let p = pre st and g = f st in fun () -> p (); g ())

let compile_expr (md : Md_hom.t) e =
  let dim_pos name =
    let rec go d =
      if d >= Array.length md.dims then unsup "unknown iteration variable %s" name
      else if String.equal md.dims.(d) name then d
      else go (d + 1)
    in
    go 0
  in
  let input_pos name =
    let rec go pos = function
      | [] -> None
      | (i : Md_hom.input) :: rest ->
        if String.equal i.inp_name name then Some (pos, i) else go (pos + 1) rest
    in
    go 0 md.inputs
  in
  let slots = { nf = 0; ni = 0; nb = 0 } in
  let rec comp env e =
    match e with
    | Expr.Const (Scalar.F32 x) ->
      let x = Scalar.round_f32 x in
      BF (fun _ () -> x)
    | Expr.Const (Scalar.F64 x) -> BF (fun _ () -> x)
    | Expr.Const (Scalar.I32 x) ->
      let x = Int32.to_int x in
      BI (fun _ () -> x)
    | Expr.Const (Scalar.I64 x) ->
      let x = Int64.to_int x in
      BI (fun _ () -> x)
    | Expr.Const (Scalar.B x) -> BB (fun _ () -> x)
    | Expr.Const (Scalar.C _ | Scalar.R _) -> unsup "char/record constant"
    | Expr.Idx name ->
      let d = dim_pos name in
      BI (fun st () -> st.point.(d))
    | Expr.Var name -> (
      match List.assoc_opt name env with
      | Some (Slot_f s) -> BF (fun st () -> st.fcells.(s))
      | Some (Slot_i s) -> BI (fun st () -> st.icells.(s))
      | Some (Slot_b s) -> BB (fun st () -> st.bcells.(s))
      | None -> unsup "unbound local %s" name)
    | Expr.Read (buf, idxs) ->
      let pos, addr = read_addr env buf idxs in
      BF
        (fun st ->
          let a = addr st and data = st.bufs.(pos) in
          fun () -> data.(a ()))
    | Expr.Binop (op, a, b) -> comp_binop env op a b
    | Expr.Unop (Expr.Neg, a) -> (
      match comp env a with
      | BF f -> BF (fun st -> let g = f st in fun () -> -.g ())
      | BI f -> BI (fun st -> let g = f st in fun () -> -g ())
      | BB _ -> unsup "negation of a boolean")
    | Expr.Unop (Expr.Not, a) ->
      let f = as_b (comp env a) in
      BB (fun st -> let g = f st in fun () -> not (g ()))
    | Expr.If (c, t, f) -> (
      let fc = as_b (comp env c) in
      match (comp env t, comp env f) with
      | BF ft, BF ff ->
        BF
          (fun st ->
            let c = fc st and t = ft st and f = ff st in
            fun () -> if c () then t () else f ())
      | BI ft, BI ff ->
        BI
          (fun st ->
            let c = fc st and t = ft st and f = ff st in
            fun () -> if c () then t () else f ())
      | BB ft, BB ff ->
        BB
          (fun st ->
            let c = fc st and t = ft st and f = ff st in
            fun () -> if c () then t () else f ())
      | _ -> unsup "if branches of different types")
    | Expr.Let (name, v, body) -> (
      match comp env v with
      | BF vf ->
        let s = slots.nf in
        slots.nf <- s + 1;
        with_pre
          (fun st -> let g = vf st in fun () -> st.fcells.(s) <- g ())
          (comp ((name, Slot_f s) :: env) body)
      | BI vf ->
        let s = slots.ni in
        slots.ni <- s + 1;
        with_pre
          (fun st -> let g = vf st in fun () -> st.icells.(s) <- g ())
          (comp ((name, Slot_i s) :: env) body)
      | BB vf ->
        let s = slots.nb in
        slots.nb <- s + 1;
        with_pre
          (fun st -> let g = vf st in fun () -> st.bcells.(s) <- g ())
          (comp ((name, Slot_b s) :: env) body))
    | Expr.Field _ | Expr.MkRecord _ -> unsup "record expression"
    | Expr.Cast (Scalar.Fp32, a) -> (
      match comp env a with
      | BF f -> BF (fun st -> let g = f st in fun () -> Scalar.round_f32 (g ()))
      | BI f -> BF (fun st -> let g = f st in fun () -> float_of_int (g ()))
      | BB _ -> unsup "cast of a boolean")
    | Expr.Cast ((Scalar.Int32 | Scalar.Int64), a) -> (
      match comp env a with
      | BI f -> BI f
      | BF f -> BI (fun st -> let g = f st in fun () -> int_of_float (g ()))
      | BB _ -> unsup "cast of a boolean")
    | Expr.Cast _ -> unsup "unsupported cast target"
  (* a read as (input position, linearized-address thunk): the address
     thunks return immediate ints, so fusing the float load into the
     consumer avoids a closure boundary (and its boxed float) per read *)
  and read_addr env buf idxs =
    match input_pos buf with
    | None -> unsup "read of non-input buffer %s" buf
    | Some (_, i) when not (Scalar.equal_ty i.inp_ty Scalar.Fp32) ->
      unsup "non-fp32 input %s" buf
    | Some (pos, i) ->
      if List.length idxs <> Array.length i.inp_shape then
        unsup "rank mismatch reading %s" buf;
      let str = row_major_strides i.inp_shape in
      let ib = List.map (fun ix -> as_i (comp env ix)) idxs in
      let addr =
        match ib with
        | [ i0 ] -> i0
        | [ i0; i1 ] ->
          let s0 = str.(0) in
          fun st ->
            let f0 = i0 st and f1 = i1 st in
            fun () -> (f0 () * s0) + f1 ()
        | _ ->
          let fs = Array.of_list ib in
          fun st ->
            let gs = Array.map (fun f -> f st) fs in
            fun () ->
              let lin = ref 0 in
              Array.iteri (fun d g -> lin := !lin + (str.(d) * g ())) gs;
              !lin
      in
      (pos, addr)
  and comp_binop env op a b =
    (* the hot shape of every catalogue reduction is [read ⊛ read]: fuse
       both loads into one thunk so the per-point cost is a single closure
       call instead of three *)
    match (op, a, b) with
    | ( (Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Min | Expr.Max),
        Expr.Read (n1, i1),
        Expr.Read (n2, i2) ) ->
      let p1, a1 = read_addr env n1 i1 in
      let p2, a2 = read_addr env n2 i2 in
      let fuse mk =
        BF
          (fun st ->
            let f1 = a1 st and d1 = st.bufs.(p1) in
            let f2 = a2 st and d2 = st.bufs.(p2) in
            mk d1 f1 d2 f2)
      in
      (match op with
      | Expr.Add -> fuse (fun d1 f1 d2 f2 () -> d1.(f1 ()) +. d2.(f2 ()))
      | Expr.Sub -> fuse (fun d1 f1 d2 f2 () -> d1.(f1 ()) -. d2.(f2 ()))
      | Expr.Mul -> fuse (fun d1 f1 d2 f2 () -> d1.(f1 ()) *. d2.(f2 ()))
      | Expr.Div -> fuse (fun d1 f1 d2 f2 () -> d1.(f1 ()) /. d2.(f2 ()))
      | Expr.Min -> fuse (fun d1 f1 d2 f2 () -> Float.min d1.(f1 ()) d2.(f2 ()))
      | Expr.Max -> fuse (fun d1 f1 d2 f2 () -> Float.max d1.(f1 ()) d2.(f2 ()))
      | _ -> assert false)
    | _ -> comp_binop_generic env op a b
  and comp_binop_generic env op a b =
    let ba = comp env a and bb = comp env b in
    let ff mk = BF (let fa = lift_f ba and fb = lift_f bb in
                    fun st -> mk (fa st) (fb st)) in
    match op with
    | Expr.And ->
      let fa = as_b ba and fb = as_b bb in
      BB (fun st -> let a = fa st and b = fb st in fun () -> a () && b ())
    | Expr.Or ->
      let fa = as_b ba and fb = as_b bb in
      BB (fun st -> let a = fa st and b = fb st in fun () -> a () || b ())
    | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Min | Expr.Max -> (
      match (ba, bb) with
      | BI fa, BI fb ->
        let mk =
          match op with
          | Expr.Add -> ( + )
          | Expr.Sub -> ( - )
          | Expr.Mul -> ( * )
          | Expr.Div -> ( / )
          | Expr.Min -> min
          | Expr.Max -> max
          | _ -> assert false
        in
        BI (fun st -> let a = fa st and b = fb st in fun () -> mk (a ()) (b ()))
      | _ ->
        let mk =
          match op with
          | Expr.Add -> ( +. )
          | Expr.Sub -> ( -. )
          | Expr.Mul -> ( *. )
          | Expr.Div -> ( /. )
          | Expr.Min -> Float.min
          | Expr.Max -> Float.max
          | _ -> assert false
        in
        ff (fun a b () -> mk (a ()) (b ())))
    | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge -> (
      match (ba, bb) with
      | BI fa, BI fb ->
        let mk : int -> int -> bool =
          match op with
          | Expr.Eq -> ( = )
          | Expr.Ne -> ( <> )
          | Expr.Lt -> ( < )
          | Expr.Le -> ( <= )
          | Expr.Gt -> ( > )
          | Expr.Ge -> ( >= )
          | _ -> assert false
        in
        BB (fun st -> let a = fa st and b = fb st in fun () -> mk (a ()) (b ()))
      | _ ->
        let fa = lift_f ba and fb = lift_f bb in
        let mk : float -> float -> bool =
          match op with
          | Expr.Eq -> ( = )
          | Expr.Ne -> ( <> )
          | Expr.Lt -> ( < )
          | Expr.Le -> ( <= )
          | Expr.Gt -> ( > )
          | Expr.Ge -> ( >= )
          | _ -> assert false
        in
        BB (fun st -> let a = fa st and b = fb st in fun () -> mk (a ()) (b ())))
  in
  match comp [] e with
  | BF f -> (f, slots)
  | BI f ->
    ((fun st -> let g = f st in fun () -> float_of_int (g ())), slots)
  | BB _ -> unsup "output value is boolean"

(* --- loop-nest compilation ------------------------------------------- *)

type nest_step =
  | S_loop of { dim : int; extent : int }
  | S_tile_outer of { tile : int; extent : int; slot : int }
  | S_tile_inner of { dim : int; tile : int; extent : int; slot : int }

type out_plan = {
  out : Md_hom.output;
  build_point : state -> unit -> float;
  direct_write : bool;  (** out_view is the identity on the result shape *)
}

type compiled = {
  digest : string;  (** [Plan.digest] of the source plan, the profile key *)
  rank : int;
  nest : nest_step array;  (** the plan's sequential levels, outermost first *)
  nest_levels : int array;
      (** plan-level index ([Plan.levels] position) of each nest step *)
  dist : (int * int) array;  (** distributed (dim, extent), outer first *)
  dist_level : int;  (** plan-level index of the [Distribute] level, or -1 *)
  tree : (int * int) option;  (** tree-reduce (dim, extent) *)
  tree_level : int;  (** plan-level index of the [Tree_reduce] level, or -1 *)
  acc_shape : int array;  (** [Md_hom.result_shape] *)
  acc_size : int;
  astride : int array;  (** accumulator stride per iteration dim; 0 on pw dims *)
  pw : (float * (float -> float -> float)) option;
      (** identity and combiner of the (single) pw operator *)
  scans : (int * (float -> float -> float)) array;
      (** ps dims with their combiners, innermost first *)
  scan_levels : int array;
      (** plan-level index of each [scans] entry's [Scan] level, or -1 *)
  n_base : int;
  slots : slots;
  outs : out_plan list;
}

let builtin_double_op (fn : Combine.custom_fn) =
  if not fn.Combine.builtin then None
  else
    match fn.Combine.fn_name with
    | "add" -> Some (0.0, ( +. ))
    | "mul" -> Some (1.0, ( *. ))
    | "min" -> Some (infinity, Float.min)
    | "max" -> Some (neg_infinity, Float.max)
    | _ -> None

let compile (plan : Plan.t) (md : Md_hom.t) =
  try
    let rank = Md_hom.rank md in
    (* one pw operator, builtin: the accumulator folds every pw dimension
       with the same double-precision combiner (the reference executor
       enforces the same single-operator restriction) *)
    let pw =
      let ops =
        List.filter_map
          (fun d ->
            match md.combine_ops.(d) with
            | Combine.Pw fn -> Some fn
            | _ -> None)
          (List.init rank Fun.id)
      in
      match ops with
      | [] -> None
      | fn :: rest ->
        if List.exists (fun f -> not (String.equal f.Combine.fn_name fn.Combine.fn_name)) rest
        then unsup "multiple distinct pw operators";
        (match builtin_double_op fn with
        | Some p -> Some p
        | None -> unsup "non-builtin pw operator %s" fn.Combine.fn_name)
    in
    let scans =
      Array.of_list
        (List.filter_map
           (fun d ->
             (* innermost first: iterate dims from last to first *)
             let d = rank - 1 - d in
             match md.combine_ops.(d) with
             | Combine.Ps fn -> (
               match builtin_double_op fn with
               | Some (_, op) -> Some (d, op)
               | None -> unsup "non-builtin ps operator %s" fn.Combine.fn_name)
             | _ -> None)
           (List.init rank Fun.id))
    in
    let acc_shape = Md_hom.result_shape md in
    let acc_size = Shape.num_elements acc_shape in
    let astride =
      let s = row_major_strides acc_shape in
      Array.mapi
        (fun d s -> if Combine.collapses md.combine_ops.(d) then 0 else s)
        s
    in
    (* loop nest from the plan's sequential levels, in level order;
       distributed and tree dims are driven by the executor above it.
       Each step keeps its position in [plan.levels] so the profiler can
       address measured time back to the plan tree. *)
    let tiles = Hashtbl.create 4 in
    let n_base = ref 0 in
    let nest =
      List.filter_map
        (fun (lvl_idx, level) ->
          match level with
          | Plan.Tile { dim; tile; extent } ->
            let slot = !n_base in
            incr n_base;
            Hashtbl.replace tiles dim (tile, extent, slot);
            Some (lvl_idx, S_tile_outer { tile; extent; slot })
          | Plan.Seq { dim; extent } -> (
            match Hashtbl.find_opt tiles dim with
            | Some (tile, full, slot) ->
              Some (lvl_idx, S_tile_inner { dim; tile; extent = full; slot })
            | None -> Some (lvl_idx, S_loop { dim; extent }))
          | Plan.Accumulate { dim; extent; _ } | Plan.Scan { dim; extent; _ } ->
            Some (lvl_idx, S_loop { dim; extent })
          | Plan.Distribute _ | Plan.Tree_reduce _ -> None)
        (List.mapi (fun i l -> (i, l)) plan.Plan.levels)
    in
    let level_index pred =
      let rec go i = function
        | [] -> -1
        | l :: rest -> if pred l then i else go (i + 1) rest
      in
      go 0 plan.Plan.levels
    in
    let dist_level =
      level_index (function Plan.Distribute _ -> true | _ -> false)
    in
    let tree_level =
      level_index (function Plan.Tree_reduce _ -> true | _ -> false)
    in
    let dist = Array.of_list (Plan.distributed plan) in
    let tree = Option.map (fun (d, extent, _) -> (d, extent)) (Plan.tree plan) in
    let slots = { nf = 0; ni = 0; nb = 0 } in
    let outs =
      List.map
        (fun (o : Md_hom.output) ->
          if not (Scalar.equal_ty o.out_ty Scalar.Fp32) then
            unsup "non-fp32 output %s" o.out_name;
          let build_point, s = compile_expr md o.value in
          slots.nf <- max slots.nf s.nf;
          slots.ni <- max slots.ni s.ni;
          slots.nb <- max slots.nb s.nb;
          let direct_write =
            Shape.equal o.out_shape acc_shape
            &&
            match o.out_access.fn with
            | Index_fn.Affine { arity; coords } ->
              arity = Array.length acc_shape
              && Array.length coords = arity
              && Array.for_all Fun.id
                   (Array.mapi
                      (fun j (c : Index_fn.coord) ->
                        c.offset = 0
                        && Array.for_all Fun.id
                             (Array.mapi
                                (fun d x -> x = if d = j then 1 else 0)
                                c.coeffs))
                      coords)
            | Index_fn.Opaque _ -> false
          in
          { out = o; build_point; direct_write })
        md.outputs
    in
    let scan_levels =
      Array.map
        (fun (d, _) ->
          level_index (function
            | Plan.Scan { dim; _ } -> dim = d
            | _ -> false))
        scans
    in
    Ok
      { digest = Plan.digest plan; rank;
        nest = Array.of_list (List.map snd nest);
        nest_levels = Array.of_list (List.map fst nest);
        dist; dist_level; tree; tree_level; acc_shape; acc_size;
        astride; pw; scans; scan_levels; n_base = !n_base; slots; outs }
  with Unsupported msg -> Error msg

(* --- execution -------------------------------------------------------- *)

let mk_state c bufs =
  { bufs;
    point = Array.make (max 1 c.rank) 0;
    base = Array.make (max 1 c.n_base) 0;
    fcells = Array.make (max 1 c.slots.nf) 0.0;
    icells = Array.make (max 1 c.slots.ni) 0;
    bcells = Array.make (max 1 c.slots.nb) false }

(* Per-job level timers: [tot.(l)] accumulates the inclusive wall time of
   nest step [l] (deeper levels included) and [cnt.(l)] its entries; slot
   [n] is the point computation itself. *)
type timers = { tot : float array; cnt : int array }

(* [f] with a clock around every call, charged to slot [l]. Self time
   telescopes exactly — self(l) = tot(l) - tot(l+1) — because clock reads
   at a child's boundary land in the parent's self time, which is what
   keeps the per-level sum equal to the in-nest time. The overhead (two
   clock reads per level entry, the innermost per point) is the
   documented price of a profiled run. *)
let timed tm l f () =
  let t0 = Clock.now_ns () in
  f ();
  tm.tot.(l) <- tm.tot.(l) +. Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0);
  tm.cnt.(l) <- tm.cnt.(l) + 1

(* Stage the sequential nest for one job as closures, outermost level
   first: the returned thunk runs the whole nest at the state's current
   outer coordinates, accumulating into [acc]. Only with [timers] is a
   level (or the point body) wrapped in [timed]; unprofiled closures read
   no clock. *)
let stage_nest c st pf acc timers =
  let astride = c.astride and rank = c.rank in
  let point = st.point in
  let wrap l f = match timers with Some tm -> timed tm l f | None -> f in
  let body =
    match c.pw with
    | Some (_, op) ->
      fun () ->
        let ai = ref 0 in
        for d = 0 to rank - 1 do
          ai := !ai + (astride.(d) * point.(d))
        done;
        acc.(!ai) <- op acc.(!ai) (pf ())
    | None ->
      fun () ->
        let ai = ref 0 in
        for d = 0 to rank - 1 do
          ai := !ai + (astride.(d) * point.(d))
        done;
        acc.(!ai) <- pf ()
  in
  let n = Array.length c.nest in
  let rec stage l =
    if l = n then wrap n body
    else
      let inner = stage (l + 1) in
      wrap l
        (match c.nest.(l) with
        | S_loop { dim; extent } ->
          fun () ->
            for x = 0 to extent - 1 do
              point.(dim) <- x;
              inner ()
            done
        | S_tile_outer { tile; extent; slot } ->
          fun () ->
            let b = ref 0 in
            while !b < extent do
              st.base.(slot) <- !b;
              inner ();
              b := !b + tile
            done
        | S_tile_inner { dim; tile; extent; slot } ->
          fun () ->
            let b = st.base.(slot) in
            let hi = min (b + tile) extent in
            for x = b to hi - 1 do
              point.(dim) <- x;
              inner ()
            done)
  in
  stage 0

(* --- per-level profiling ---------------------------------------------- *)

let level_path l = "L" ^ string_of_int l

(* The plan level a job's own loop driving (distribute/tree decode, state
   setup) is attributed to: the innermost parallel level when one exists,
   else the outermost nest step. *)
let driver_level c =
  if c.tree_level >= 0 then c.tree_level
  else if c.dist_level >= 0 then c.dist_level
  else if Array.length c.nest_levels > 0 then c.nest_levels.(0)
  else -1

(* Flush one job's accumulated per-level times: self times for the nest
   steps, the point computation under "leaf", the job's loop-control
   residue under the driving parallel level, and the job wall under the
   enclosing "exec" cell — so the per-level times of a run sum to its
   exec cell by construction, which the tests pin. *)
let flush_profile c ~wall { tot; cnt } =
  let digest = c.digest in
  let n = Array.length c.nest in
  for l = 0 to n - 1 do
    Profile.add_n ~digest ~path:(level_path c.nest_levels.(l)) ~count:cnt.(l)
      (tot.(l) -. tot.(l + 1))
  done;
  Profile.add_n ~digest ~path:"leaf" ~count:cnt.(n) tot.(n);
  let residue = wall -. tot.(0) in
  let dl = driver_level c in
  if dl >= 0 then Profile.add ~digest ~path:(level_path dl) residue
  else Profile.add ~digest ~path:"leaf" residue;
  Profile.add ~digest ~path:"exec" wall

(* Attribute a coordinator-side segment (partial combine, post-scan,
   write-back) to a level path and to the enclosing exec cell. *)
let profile_segment c path f =
  if not (Profile.enabled ()) then f ()
  else begin
    let t0 = Clock.now_ns () in
    let r = f () in
    let dt = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0) in
    Profile.add ~digest:c.digest ~path dt;
    Profile.add ~digest:c.digest ~path:"exec" dt;
    r
  end

let decode_dist dist point lin =
  let rest = ref lin in
  for d = Array.length dist - 1 downto 0 do
    let dim, extent = dist.(d) in
    point.(dim) <- !rest mod extent;
    rest := !rest / extent
  done

(* One job: the distributed points [dlo, dlo + dsz) and, under a tree
   level, the indices [tlo, tlo + tsz) of tree dimension [td], running the
   staged nest at each into [acc], which it returns. A profiled job
   flushes its level times once, at the end. *)
let run_job c bufs pf ~profiling (dlo, dsz) tree acc () =
  let st = mk_state c bufs in
  let n = Array.length c.nest in
  let timers =
    if profiling then
      Some { tot = Array.make (n + 1) 0.0; cnt = Array.make (n + 1) 0 }
    else None
  in
  let nest = stage_nest c st (pf st) acc timers in
  let sweep =
    match tree with
    | Some (td, tlo, tsz) ->
      fun () ->
        for x = tlo to tlo + tsz - 1 do
          st.point.(td) <- x;
          nest ()
        done
    | None -> nest
  in
  let t0 = if profiling then Clock.now_ns () else 0L in
  for i = dlo to dlo + dsz - 1 do
    decode_dist c.dist st.point i;
    sweep ()
  done;
  Option.iter
    (flush_profile c ~wall:(Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0)))
    timers;
  acc

let exec_output c pool bufs op =
  (* sampled once per output, so every job of one run agrees *)
  let profiling = Profile.enabled () in
  let fresh () =
    Array.make c.acc_size (match c.pw with Some (id, _) -> id | None -> 0.0)
  in
  let acc = fresh () in
  let dist_points =
    Array.fold_left (fun a (_, extent) -> a * extent) 1 c.dist
  in
  let all_points = (0, dist_points) in
  let job = run_job c bufs op.build_point ~profiling in
  let chunks extent =
    Array.of_list (Pool.split_range ~extent ~pieces:(Pool.chunk_budget pool))
  in
  let parallel =
    Pool.num_workers pool > 1 && (Array.length c.dist > 0 || c.tree <> None)
  in
  (match (parallel, c.tree) with
  | true, Some (td, extent) ->
    (* tree reduction: per-chunk private accumulators over the whole
       result, combined in chunk order so associativity suffices *)
    let _, combine = Option.get c.pw in
    let partials =
      Pool.run_in_parallel pool
        (Array.map
           (fun (lo, sz) () -> job all_points (Some (td, lo, sz)) (fresh ()) ())
           (chunks extent))
    in
    profile_segment c (level_path c.tree_level) (fun () ->
        Array.iter
          (fun part ->
            for i = 0 to c.acc_size - 1 do
              acc.(i) <- combine acc.(i) part.(i)
            done)
          partials)
  | true, None ->
    (* distributed cc dims: disjoint accumulator slabs, shared array *)
    ignore
      (Pool.run_in_parallel pool
         (Array.map (fun r -> job r None acc) (chunks dist_points)))
  | false, tree ->
    let tree = Option.map (fun (td, extent) -> (td, 0, extent)) tree in
    ignore (job all_points tree acc ()));
  (* post-scan ps dimensions, innermost first, over the accumulator *)
  let sstride = row_major_strides c.acc_shape in
  Array.iteri
    (fun k (d, op) ->
      let stride = sstride.(d) and extent = c.acc_shape.(d) in
      if extent > 1 then
        let path =
          if c.scan_levels.(k) >= 0 then level_path c.scan_levels.(k)
          else "scan"
        in
        profile_segment c path (fun () ->
            for lin = 0 to c.acc_size - 1 do
              if lin / stride mod extent > 0 then
                acc.(lin) <- op acc.(lin - stride) acc.(lin)
            done))
    c.scans;
  acc

(* Round the double accumulator into the output's fp32 store, in place. *)
let write_back c out op acc =
  if op.direct_write then Array.iteri (fun i v -> out.(i) <- Scalar.round_f32 v) acc
  else begin
    let o = op.out in
    let lin = ref 0 in
    Shape.iter c.acc_shape (fun pt ->
        out.(Shape.linearize o.Md_hom.out_shape (Index_fn.apply o.out_access.fn pt)) <-
          Scalar.round_f32 acc.(!lin);
        incr lin)
  end

(* --- the digest-keyed compile cache ----------------------------------- *)

let cache : (compiled, string) result Memo.t = Memo.create "runtime.specializer"

let m_compiles = Metrics.counter "runtime.specializer.compiles"

(* per-phase latency: compilation (cache misses only) vs execution of the
   compiled closure — hit/miss counters alone leave compiled-plan time
   invisible in traces *)
let h_compile = Metrics.histogram "runtime.specializer.compile_s"
let h_run = Metrics.histogram "runtime.specializer.run_s"

let cache_key plan md =
  Memo.key [ Plan.digest plan; Format.asprintf "%a" Md_hom.pp md ]

let compiled plan md =
  Memo.find_or_add cache (cache_key plan md) (fun () ->
      let t0 = Clock.now_ns () in
      let result =
        Trace.with_span ~cat:"runtime" "specializer.compile"
          ~args:[ ("hom", md.Md_hom.hom_name); ("digest", Plan.digest plan) ]
          (fun () -> compile plan md)
      in
      let dt = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0) in
      Metrics.observe h_compile dt;
      Profile.add ~digest:(Plan.digest plan) ~path:"phase:specializer.compile"
        dt;
      match result with
      | Ok c ->
        Metrics.incr m_compiles;
        Ok c
      | Error _ as e -> e)

let supported plan md =
  match compiled plan md with Ok _ -> Ok () | Error e -> Error e

type stats = { hits : int; misses : int; compiles : int }

let stats () =
  let s = Memo.stats cache in
  { hits = s.Memo.n_hits; misses = s.Memo.n_misses; compiles = Metrics.value m_compiles }

let clear () = Memo.clear cache

(* --- dispatch entry point --------------------------------------------- *)

(* The float store of a buffer, which the run reads or writes in place;
   [Exit] when it has none, which declines the run. *)
let store b = match Dense.floats (Buffer.data b) with Some a -> a | None -> raise Exit

let bind (md : Md_hom.t) env =
  try
    Some
      (Array.of_list
         (List.map
            (fun (i : Md_hom.input) ->
              match Buffer.env_find_opt env i.inp_name with
              | Some b
                when Scalar.equal_ty (Buffer.ty b) Scalar.Fp32
                     && Shape.equal (Buffer.shape b) i.inp_shape ->
                store b
              | _ -> raise Exit)
            md.inputs))
  with Exit -> None

let try_run pool (plan : Plan.t) (md : Md_hom.t) env =
  if Array.exists (fun s -> s = 0) md.sizes then None
  else
    match compiled plan md with
    | Error _ -> None
    | Ok c -> (
      match bind md env with
      | None -> None
      | Some bufs ->
        Trace.with_span ~cat:"runtime" "exec.specialized"
          ~args:[ ("hom", md.Md_hom.hom_name); ("digest", Plan.digest plan) ]
          (fun () ->
            let t0 = Clock.now_ns () in
            let env = Semantics.alloc_outputs md env in
            match
              List.map (fun op -> store (Buffer.env_find env op.out.Md_hom.out_name)) c.outs
            with
            | exception Exit -> None
            | outs ->
              List.iter2
                (fun op out ->
                  let acc = exec_output c pool bufs op in
                  profile_segment c "writeback" (fun () ->
                      write_back c out op acc))
                c.outs outs;
              let dt = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0) in
              Metrics.observe h_run dt;
              Profile.add ~digest:c.digest ~path:"phase:specializer.run" dt;
              Some env))
