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

(* The hot loops below call no float helper from another module: a build
   with -opaque (dune's dev profile) compiles such a call out of line, and
   an out-of-line call boxes its float arguments and result. Stdlib
   primitives and [@inline] helpers of this module inline. *)

(* [Scalar.round_f32], inlinable *)
let[@inline] round_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* --- per-job evaluation state ---------------------------------------- *)

(* Compilation happens once per plan digest; instantiation happens once per
   job, against the job's own state. *)
type state = {
  bufs : float array array;  (** one flat array per input, in [md.inputs] order *)
  point : int array;  (** current iteration point, length = rank *)
  base : int array;  (** cache-tile block origins, one slot per Tile level *)
}

(* --- the builtin operators, inlined -------------------------------------- *)

type fold = F_add | F_mul | F_min | F_max

let fold_of (fn : Combine.custom_fn) =
  if not fn.Combine.builtin then None
  else
    match fn.Combine.fn_name with
    | "add" -> Some F_add
    | "mul" -> Some F_mul
    | "min" -> Some F_min
    | "max" -> Some F_max
    | _ -> None

let identity = function
  | F_add -> 0.0
  | F_mul -> 1.0
  | F_min -> infinity
  | F_max -> neg_infinity

(* Called with a constant [op] from a [match op with F_add -> loop F_add
   ...] dispatch, every loop below compiles to one direct loop per
   operator, with no dispatch and no boxing per element. *)
let[@inline] combine op (a : float) (b : float) =
  match op with
  | F_add -> a +. b
  | F_mul -> a *. b
  | F_min -> Float.min a b
  | F_max -> Float.max a b

let[@inline] arith op (a : float) (b : float) =
  match op with
  | Expr.Add -> a +. b
  | Expr.Sub -> a -. b
  | Expr.Mul -> a *. b
  | Expr.Div -> a /. b
  | Expr.Min -> Float.min a b
  | Expr.Max -> Float.max a b
  | _ -> invalid_arg "Specializer.arith"

(* --- expression compilation ------------------------------------------- *)

let row_major_strides shape =
  let r = Array.length shape in
  let s = Array.make r 1 in
  for d = r - 2 downto 0 do
    s.(d) <- s.(d + 1) * shape.(d + 1)
  done;
  s

let dim_pos (md : Md_hom.t) name =
  let rec go d =
    if d >= Array.length md.dims then unsup "unknown iteration variable %s" name
    else if String.equal md.dims.(d) name then d
    else go (d + 1)
  in
  go 0

(* The position of a read's input in [md.inputs] and that input's
   row-major strides. *)
let input_of (md : Md_hom.t) buf idxs =
  let rec go pos = function
    | [] -> unsup "read of non-input buffer %s" buf
    | (i : Md_hom.input) :: rest ->
      if not (String.equal i.inp_name buf) then go (pos + 1) rest
      else if not (Scalar.equal_ty i.inp_ty Scalar.Fp32) then
        unsup "non-fp32 input %s" buf
      else if List.length idxs <> Array.length i.inp_shape then
        unsup "rank mismatch reading %s" buf
      else (pos, row_major_strides i.inp_shape)
  in
  go 0 md.inputs

(* An integer affine in the iteration point: [c0 + Σ_d co.(d) * point.(d)].
   Integer arithmetic wraps, so the rearrangement is exact. *)
type affine = { c0 : int; co : int array }

let aff_const rank c = { c0 = c; co = Array.make rank 0 }
let aff_add a b = { c0 = a.c0 + b.c0; co = Array.map2 ( + ) a.co b.co }
let aff_scale k a = { c0 = k * a.c0; co = Array.map (fun x -> k * x) a.co }
let aff_is_const a = Array.for_all (fun x -> x = 0) a.co

(* A value expression over one strip of a row: every node fills one float
   register with its value at each lane. *)
type rexpr =
  | R_const of float
  | R_read of int * affine  (** input position, flat address *)
  | R_ramp of affine  (** an integer, converted *)
  | R_bin of Expr.binop * rexpr * rexpr  (** Add/Sub/Mul/Div/Min/Max *)
  | R_neg of rexpr
  | R_round of rexpr
  | R_var of int  (** a float [Let], by its number *)
  | R_let of int * rexpr * rexpr  (** number, value, body *)

(* A compiled value: a float row expression, or an integer affine in the
   iteration point. A [Let]-bound name stands for one: a float [Let] as
   its [R_var], an integer [Let] as its value, substituted where used. *)
type row = Row_f of rexpr | Row_i of affine

(* Compile [e] to a row expression, or raise [Unsupported] naming the
   first form a row cannot compute: [If], comparisons, booleans, records,
   float-to-integer casts, a float [Let] whose body is an integer, and
   integer arithmetic not affine in the iteration variables, with the
   reads such an integer indexes. *)
let row_compiler (md : Md_hom.t) =
  let rank = Md_hom.rank md in
  let nlets = ref 0 in
  let as_rexpr = function Row_f r -> r | Row_i a -> R_ramp a in
  let rec row env e =
    match e with
    | Expr.Const (Scalar.F32 x) -> Row_f (R_const (round_f32 x))
    | Expr.Const (Scalar.F64 x) -> Row_f (R_const x)
    | Expr.Const (Scalar.I32 x) -> Row_i (aff_const rank (Int32.to_int x))
    | Expr.Const (Scalar.I64 x) -> Row_i (aff_const rank (Int64.to_int x))
    | Expr.Const (Scalar.B _ | Scalar.C _ | Scalar.R _) -> unsup "boolean/char/record constant"
    | Expr.Idx name ->
      let d = dim_pos md name in
      Row_i { c0 = 0; co = Array.init rank (fun e -> if e = d then 1 else 0) }
    | Expr.Var name -> (
      match List.assoc_opt name env with
      | Some r -> r
      | None -> unsup "unbound local %s" name)
    | Expr.Read (buf, idxs) ->
      let pos, str = input_of md buf idxs in
      let rec addr acc d = function
        | [] -> acc
        | ix :: rest -> (
          match row env ix with
          | Row_i a -> addr (aff_add acc (aff_scale str.(d) a)) (d + 1) rest
          | Row_f _ -> unsup "non-integer index expression")
      in
      Row_f (R_read (pos, addr (aff_const rank 0) 0 idxs))
    | Expr.Binop
        (((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Min | Expr.Max) as op), a, b)
      -> (
      match (op, row env a, row env b) with
      | Expr.Add, Row_i x, Row_i y -> Row_i (aff_add x y)
      | Expr.Sub, Row_i x, Row_i y -> Row_i (aff_add x (aff_scale (-1) y))
      | Expr.Mul, Row_i x, Row_i y when aff_is_const x -> Row_i (aff_scale x.c0 y)
      | Expr.Mul, Row_i x, Row_i y when aff_is_const y -> Row_i (aff_scale y.c0 x)
      | _, Row_i _, Row_i _ ->
        unsup "integer %a not affine in the iteration variables" Expr.pp_binop op
      | _, ra, rb -> Row_f (R_bin (op, as_rexpr ra, as_rexpr rb)))
    | Expr.Binop (((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op), _, _) ->
      unsup "comparison %a" Expr.pp_binop op
    | Expr.Binop (((Expr.And | Expr.Or) as op), _, _) -> unsup "boolean %a" Expr.pp_binop op
    | Expr.Unop (Expr.Not, _) -> unsup "boolean negation"
    | Expr.Unop (Expr.Neg, a) -> (
      match row env a with
      | Row_f r -> Row_f (R_neg r)
      | Row_i x -> Row_i (aff_scale (-1) x))
    | Expr.If _ -> unsup "if-then-else"
    | Expr.Let (name, v, body) -> (
      match row env v with
      | Row_f r -> (
        let n = !nlets in
        incr nlets;
        match row ((name, Row_f (R_var n)) :: env) body with
        | Row_f b -> Row_f (R_let (n, r, b))
        | Row_i _ -> unsup "integer body under a float let")
      | Row_i _ as i -> row ((name, i) :: env) body)
    | Expr.Field _ | Expr.MkRecord _ -> unsup "record expression"
    | Expr.Cast (Scalar.Fp32, a) -> (
      match row env a with
      | Row_f r -> Row_f (R_round r)
      | Row_i x -> Row_f (R_ramp x))
    | Expr.Cast ((Scalar.Int32 | Scalar.Int64), a) -> (
      match row env a with
      | Row_i x -> Row_i x
      | Row_f _ -> unsup "float-to-integer cast")
    | Expr.Cast _ -> unsup "unsupported cast target"
  in
  fun e -> as_rexpr (row [] e)

(* --- row programs ------------------------------------------------------- *)

(* An affine form seen from a row: [base + step * x] at row coordinate
   [x], where [base] sums the other dimensions of the point. *)
type strided = { s0 : int; sdims : int array; scoefs : int array; step : int }

let strided ~row_dim a =
  let ds =
    List.filter (fun d -> d <> row_dim && a.co.(d) <> 0) (List.init (Array.length a.co) Fun.id)
  in
  { s0 = a.c0;
    sdims = Array.of_list ds;
    scoefs = Array.of_list (List.map (fun d -> a.co.(d)) ds);
    step = a.co.(row_dim) }

let[@inline] row_base s (point : int array) =
  let b = ref s.s0 in
  for k = 0 to Array.length s.sdims - 1 do
    b := !b + (Array.unsafe_get s.scoefs k * point.(Array.unsafe_get s.sdims k))
  done;
  !b

(* The addresses [a0 + step * l], l in [0, n), are within [0, len): an
   affine sequence is, iff its two ends are. *)
let[@inline] check_span a0 step n len =
  let a1 = a0 + (step * (n - 1)) in
  if a0 < 0 || a0 >= len || a1 < 0 || a1 >= len then invalid_arg "index out of bounds"

(* One job's view of a row program: its state and its registers. *)
type ctx = { st : state; regs : float array array }

(* An instruction, instantiated once per job, fills its register over the
   lanes [0, n) of the strip that starts at row coordinate [x0]. *)
type instr = ctx -> int -> int -> unit

let read_instr pos s r { st; regs } =
  let data = st.bufs.(pos) and dst = regs.(r) and point = st.point in
  let len = Array.length data and step = s.step in
  fun x0 n ->
    let a0 = row_base s point + (step * x0) in
    check_span a0 step n len;
    for l = 0 to n - 1 do
      Array.unsafe_set dst l (Array.unsafe_get data (a0 + (step * l)))
    done

let ramp_instr s r { st; regs } =
  let dst = regs.(r) and point = st.point and step = s.step in
  fun x0 n ->
    let a0 = row_base s point + (step * x0) in
    for l = 0 to n - 1 do
      Array.unsafe_set dst l (float_of_int (a0 + (step * l)))
    done

let[@inline] map2 op (a : float array) (b : float array) (d : float array) n =
  for l = 0 to n - 1 do
    Array.unsafe_set d l (arith op (Array.unsafe_get a l) (Array.unsafe_get b l))
  done

let bin_instr op ra rb r { regs; _ } =
  let a = regs.(ra) and b = regs.(rb) and d = regs.(r) in
  match op with
  | Expr.Add -> fun _ n -> map2 Expr.Add a b d n
  | Expr.Sub -> fun _ n -> map2 Expr.Sub a b d n
  | Expr.Mul -> fun _ n -> map2 Expr.Mul a b d n
  | Expr.Div -> fun _ n -> map2 Expr.Div a b d n
  | Expr.Min -> fun _ n -> map2 Expr.Min a b d n
  | Expr.Max -> fun _ n -> map2 Expr.Max a b d n
  | _ -> invalid_arg "Specializer.bin_instr"

let neg_instr ra r { regs; _ } =
  let a = regs.(ra) and d = regs.(r) in
  fun _ n ->
    for l = 0 to n - 1 do
      Array.unsafe_set d l (-.Array.unsafe_get a l)
    done

let round_instr ra r { regs; _ } =
  let a = regs.(ra) and d = regs.(r) in
  fun _ n ->
    for l = 0 to n - 1 do
      Array.unsafe_set d l (round_f32 (Array.unsafe_get a l))
    done

type program = {
  code : instr array;  (** in evaluation order *)
  consts : (int * float) list;  (** registers filled once per job *)
  nregs : int;
  root : int;  (** the register of the point values *)
}

(* Lower a row expression to instructions over numbered registers. *)
let lower ~row_dim rx =
  let nregs = ref 0 and consts = ref [] and code = ref [] and vars = ref [] in
  let fresh () =
    let r = !nregs in
    incr nregs;
    r
  in
  let emit mk =
    let r = fresh () in
    code := mk r :: !code;
    r
  in
  let rec go = function
    | R_const x ->
      let r = fresh () in
      consts := (r, x) :: !consts;
      r
    | R_var n -> List.assoc n !vars
    | R_let (n, v, b) ->
      let rv = go v in
      vars := (n, rv) :: !vars;
      go b
    | R_read (pos, a) -> emit (read_instr pos (strided ~row_dim a))
    | R_ramp a -> emit (ramp_instr (strided ~row_dim a))
    | R_bin (op, a, b) ->
      let ra = go a in
      let rb = go b in
      emit (bin_instr op ra rb)
    | R_neg a ->
      let ra = go a in
      emit (neg_instr ra)
    | R_round a ->
      let ra = go a in
      emit (round_instr ra)
  in
  let root = go rx in
  { code = Array.of_list (List.rev !code); consts = !consts; nregs = !nregs; root }

(* --- loop-nest compilation ------------------------------------------- *)

type nest_step =
  | S_loop of { dim : int; extent : int }
  | S_tile_outer of { tile : int; extent : int; slot : int }
  | S_tile_inner of { dim : int; tile : int; extent : int; slot : int }

(* What runs a job's innermost level as a row: the last step of the
   sequential nest; with no nest, the tree-reduce range; with neither, the
   last distributed dimension. *)
type row_kind = Row_nest | Row_tree | Row_dist

(* How write-back maps the accumulator onto an output's store. *)
type view =
  | View_affine of { o0 : int; extents : int array; weights : int array }
      (** flat output address [o0 + Σ weights.(k) * x_k] over the
          accumulator's dimensions of extent > 1, outermost first *)
  | View_opaque  (** through [Index_fn.apply], which checks every index *)

type out_plan = { out : Md_hom.output; prog : program; view : view }

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
  row : row_kind;
  row_dim : int;  (** the dimension a row runs along *)
  reglen : int;  (** register length: {!strip} capped at the longest row *)
  acc_shape : int array;  (** [Md_hom.result_shape] *)
  acc_size : int;
  acc_addr : strided;  (** accumulator address; no terms on pw dims *)
  pw : fold option;  (** the (single) pw operator *)
  scans : (int * fold) array;  (** ps dims with their operators, innermost first *)
  scan_levels : int array;
      (** plan-level index of each [scans] entry's [Scan] level, or -1 *)
  n_base : int;
  outs : out_plan list;
}

(* Lanes per strip: long enough to amortise one instruction call per node,
   short enough that a strip's registers stay in cache. *)
let strip = 256

(* The affine write-back of [o]'s view, when its index function is affine
   and maps the accumulator box into the output's shape. *)
let view_of acc_shape (o : Md_hom.output) =
  match o.out_access.fn with
  | Index_fn.Affine { arity; coords } as fn
    when arity = Array.length acc_shape
         && Array.length coords = Array.length o.out_shape
         && Array.for_all (fun x -> x >= 0) (Index_fn.min_index fn acc_shape)
         && Array.for_all2 ( < ) (Index_fn.max_index fn acc_shape) o.out_shape ->
    let ostr = row_major_strides o.out_shape in
    let weight d =
      let w = ref 0 in
      Array.iteri (fun j (c : Index_fn.coord) -> w := !w + (ostr.(j) * c.coeffs.(d))) coords;
      !w
    in
    let ds = List.filter (fun d -> acc_shape.(d) > 1) (List.init arity Fun.id) in
    let o0 = ref 0 in
    Array.iteri (fun j (c : Index_fn.coord) -> o0 := !o0 + (ostr.(j) * c.offset)) coords;
    View_affine
      { o0 = !o0;
        extents = Array.of_list (List.map (fun d -> acc_shape.(d)) ds);
        weights = Array.of_list (List.map weight ds) }
  | Index_fn.Affine _ | Index_fn.Opaque _ -> View_opaque

let compile ~digest (plan : Plan.t) (md : Md_hom.t) =
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
        (match fold_of fn with
        | Some op -> Some op
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
               match fold_of fn with
               | Some op -> Some (d, op)
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
    let row, row_dim, row_extent =
      match (List.rev nest, tree) with
      | (_, S_loop { dim; extent }) :: _, _ -> (Row_nest, dim, extent)
      | (_, S_tile_inner { dim; tile; _ }) :: _, _ -> (Row_nest, dim, tile)
      | (_, S_tile_outer _) :: _, _ -> unsup "plan nest ends in a tile loop"
      | [], Some (dim, extent) -> (Row_tree, dim, extent)
      | [], None ->
        if Array.length dist = 0 then unsup "plan has no levels";
        let dim, extent = dist.(Array.length dist - 1) in
        (Row_dist, dim, extent)
    in
    let outs =
      List.map
        (fun (o : Md_hom.output) ->
          if not (Scalar.equal_ty o.out_ty Scalar.Fp32) then
            unsup "non-fp32 output %s" o.out_name;
          let prog = lower ~row_dim (row_compiler md o.value) in
          { out = o; prog; view = view_of acc_shape o })
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
      { digest; rank;
        nest = Array.of_list (List.map snd nest);
        nest_levels = Array.of_list (List.map fst nest);
        dist; dist_level; tree; tree_level; row; row_dim;
        reglen = max 1 (Int.min strip row_extent);
        acc_shape; acc_size;
        acc_addr = strided ~row_dim { c0 = 0; co = astride };
        pw; scans; scan_levels; n_base = !n_base; outs }
  with Unsupported msg -> Error msg

(* --- execution -------------------------------------------------------- *)

let mk_state c bufs =
  { bufs;
    point = Array.make (max 1 c.rank) 0;
    base = Array.make (max 1 c.n_base) 0 }

(* Per-job level timers: [tot.(l)] accumulates the inclusive wall time of
   nest step [l] (deeper levels included) and [cnt.(l)] its entries; slot
   [n] is the point computation itself, counted in iteration points. *)
type timers = { tot : float array; cnt : int array }

let charge tm l ~count t0 =
  tm.tot.(l) <- tm.tot.(l) +. Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0);
  tm.cnt.(l) <- tm.cnt.(l) + count

(* [f] with a clock around every call, charged to slot [l]. Self time
   telescopes exactly — self(l) = tot(l) - tot(l+1) — because clock reads
   at a child's boundary land in the parent's self time, which is what
   keeps the per-level sum equal to the in-nest time. The overhead (two
   clock reads per level entry and per strip) is the documented price of
   a profiled run. *)
let timed tm l f () =
  let t0 = Clock.now_ns () in
  f ();
  charge tm l ~count:1 t0

let timed_strip tm l f x0 n =
  let t0 = Clock.now_ns () in
  f x0 n;
  charge tm l ~count:n t0

let[@inline] fold_one op (acc : float array) i (v : float array) n =
  let s = ref acc.(i) in
  for l = 0 to n - 1 do
    s := combine op !s (Array.unsafe_get v l)
  done;
  acc.(i) <- !s

let[@inline] fold_strided op (acc : float array) i0 step (v : float array) n =
  check_span i0 step n (Array.length acc);
  for l = 0 to n - 1 do
    let i = i0 + (step * l) in
    Array.unsafe_set acc i (combine op (Array.unsafe_get acc i) (Array.unsafe_get v l))
  done

(* Fold a strip's point values [v] into the accumulator, each element in
   iteration order: into one local when the row runs along a pw
   dimension, at the row's accumulator stride otherwise. *)
let fold_strip c st (acc : float array) (v : float array) =
  let s = c.acc_addr and point = st.point in
  let step = s.step in
  match c.pw with
  | Some op when step = 0 -> (
    match op with
    | F_add -> fun _ n -> fold_one F_add acc (row_base s point) v n
    | F_mul -> fun _ n -> fold_one F_mul acc (row_base s point) v n
    | F_min -> fun _ n -> fold_one F_min acc (row_base s point) v n
    | F_max -> fun _ n -> fold_one F_max acc (row_base s point) v n)
  | Some op -> (
    let at x0 = row_base s point + (step * x0) in
    match op with
    | F_add -> fun x0 n -> fold_strided F_add acc (at x0) step v n
    | F_mul -> fun x0 n -> fold_strided F_mul acc (at x0) step v n
    | F_min -> fun x0 n -> fold_strided F_min acc (at x0) step v n
    | F_max -> fun x0 n -> fold_strided F_max acc (at x0) step v n)
  | None ->
    fun x0 n ->
      let i0 = row_base s point + (step * x0) in
      check_span i0 step n (Array.length acc);
      for l = 0 to n - 1 do
        Array.unsafe_set acc (i0 + (step * l)) (Array.unsafe_get v l)
      done

(* The row step of one job for output [op]: [row lo hi] evaluates the
   points [lo, hi) of the row dimension, at the state's other coordinates,
   one strip at a time into the registers, and folds each strip into
   [acc]. With [timers], every strip is charged to the leaf slot. *)
let stage_row c op st acc timers =
  let prog = op.prog in
  let regs = Array.init prog.nregs (fun _ -> Array.create_float c.reglen) in
  List.iter (fun (r, x) -> Array.fill regs.(r) 0 c.reglen x) prog.consts;
  let ctx = { st; regs } in
  let code = Array.map (fun i -> i ctx) prog.code in
  let fold = fold_strip c st acc regs.(prog.root) in
  let run x0 n =
    for k = 0 to Array.length code - 1 do
      (Array.unsafe_get code k) x0 n
    done;
    fold x0 n
  in
  let run =
    match timers with
    | Some tm -> timed_strip tm (Array.length c.nest) run
    | None -> run
  in
  let reglen = c.reglen in
  fun lo hi ->
    let x = ref lo in
    while !x < hi do
      let n = Int.min reglen (hi - !x) in
      run !x n;
      x := !x + n
    done

(* Stage the sequential nest for one job as closures, outermost level
   first, with the row step as its last level: the returned thunk runs the
   whole nest at the state's current outer coordinates. Only with
   [timers] is a level wrapped in [timed]; unprofiled closures read no
   clock. *)
let stage_nest c st row timers =
  let point = st.point in
  let wrap l f = match timers with Some tm -> timed tm l f | None -> f in
  let n = Array.length c.nest in
  let rec stage l =
    if l = n - 1 then
      wrap l
        (match c.nest.(l) with
        | S_loop { extent; _ } -> fun () -> row 0 extent
        | S_tile_inner { tile; extent; slot; _ } ->
          fun () ->
            let b = st.base.(slot) in
            row b (Int.min (b + tile) extent)
        | S_tile_outer _ -> invalid_arg "Specializer.stage_nest")
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
            let hi = Int.min (b + tile) extent in
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
let run_job c bufs op ~profiling (dlo, dsz) tree acc () =
  let st = mk_state c bufs in
  let n = Array.length c.nest in
  let timers =
    if profiling then
      Some { tot = Array.make (n + 1) 0.0; cnt = Array.make (n + 1) 0 }
    else None
  in
  let row = stage_row c op st acc timers in
  let t0 = if profiling then Clock.now_ns () else 0L in
  (match (c.row, tree) with
  | Row_nest, _ ->
    let nest = stage_nest c st row timers in
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
    for i = dlo to dlo + dsz - 1 do
      decode_dist c.dist st.point i;
      sweep ()
    done
  | Row_tree, Some (_, tlo, tsz) ->
    for i = dlo to dlo + dsz - 1 do
      decode_dist c.dist st.point i;
      row tlo (tlo + tsz)
    done
  | Row_tree, None -> invalid_arg "Specializer.run_job"
  | Row_dist, _ ->
    (* the last distributed dimension varies fastest: decode once per row *)
    let extent = snd c.dist.(Array.length c.dist - 1) in
    let i = ref dlo and stop = dlo + dsz in
    while !i < stop do
      decode_dist c.dist st.point !i;
      let x = !i mod extent in
      let len = Int.min (extent - x) (stop - !i) in
      row x (x + len);
      i := !i + len
    done);
  Option.iter
    (flush_profile c ~wall:(Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0)))
    timers;
  acc

let[@inline] combine_into op (acc : float array) (part : float array) =
  for i = 0 to Array.length acc - 1 do
    acc.(i) <- combine op acc.(i) part.(i)
  done

let combine_partial op acc part =
  match op with
  | F_add -> combine_into F_add acc part
  | F_mul -> combine_into F_mul acc part
  | F_min -> combine_into F_min acc part
  | F_max -> combine_into F_max acc part

(* Every element whose coordinate along the scanned dimension is [x > 0]
   becomes [prev ⊕ itself], in increasing address order. *)
let[@inline] scan_loop op (acc : float array) ~stride ~extent =
  let block = stride * extent in
  for b = 0 to (Array.length acc / block) - 1 do
    for x = 1 to extent - 1 do
      let first = (b * block) + (x * stride) in
      for i = first to first + stride - 1 do
        acc.(i) <- combine op acc.(i - stride) acc.(i)
      done
    done
  done

let post_scan op acc ~stride ~extent =
  match op with
  | F_add -> scan_loop F_add acc ~stride ~extent
  | F_mul -> scan_loop F_mul acc ~stride ~extent
  | F_min -> scan_loop F_min acc ~stride ~extent
  | F_max -> scan_loop F_max acc ~stride ~extent

let exec_output c pool bufs op =
  (* sampled once per output, so every job of one run agrees *)
  let profiling = Profile.enabled () in
  let fresh () =
    Array.make c.acc_size (match c.pw with Some op -> identity op | None -> 0.0)
  in
  let acc = fresh () in
  let dist_points =
    Array.fold_left (fun a (_, extent) -> a * extent) 1 c.dist
  in
  let all_points = (0, dist_points) in
  let job = run_job c bufs op ~profiling in
  let chunks extent =
    Array.of_list (Pool.split_range ~extent ~pieces:(Pool.chunk_budget pool))
  in
  let parallel =
    Pool.num_workers pool > 1 && (Array.length c.dist > 0 || c.tree <> None)
  in
  (match (parallel, c.tree, c.pw) with
  | true, Some (td, extent), Some pw ->
    (* tree reduction: per-chunk private accumulators over the whole
       result, combined in chunk order so associativity suffices *)
    let partials =
      Pool.run_in_parallel pool
        (Array.map
           (fun (lo, sz) () -> job all_points (Some (td, lo, sz)) (fresh ()) ())
           (chunks extent))
    in
    profile_segment c (level_path c.tree_level) (fun () ->
        Array.iter (combine_partial pw acc) partials)
  | true, _, _ ->
    (* distributed cc dims: disjoint accumulator slabs, shared array *)
    ignore
      (Pool.run_in_parallel pool
         (Array.map (fun r -> job r None acc) (chunks dist_points)))
  | false, tree, _ ->
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
        profile_segment c path (fun () -> post_scan op acc ~stride ~extent))
    c.scans;
  acc

(* Round the double accumulator into the output's fp32 store, in place:
   along the view's affine form with a running address, innermost
   accumulator dimension in a tight loop. *)
let write_back c (out : float array) op (acc : float array) =
  match op.view with
  | View_affine { o0; extents; weights } ->
    let r = Array.length extents in
    let i = ref 0 in
    let rec walk k base =
      let w = weights.(k) in
      if k = r - 1 then begin
        let i0 = !i in
        for x = 0 to extents.(k) - 1 do
          out.(base + (w * x)) <- round_f32 acc.(i0 + x)
        done;
        i := i0 + extents.(k)
      end
      else
        for x = 0 to extents.(k) - 1 do
          walk (k + 1) (base + (w * x))
        done
    in
    if r = 0 then out.(o0) <- round_f32 acc.(0) else walk 0 o0
  | View_opaque ->
    let o = op.out in
    let lin = ref 0 in
    Shape.iter c.acc_shape (fun pt ->
        out.(Shape.linearize o.Md_hom.out_shape (Index_fn.apply o.out_access.fn pt)) <-
          round_f32 acc.(!lin);
        incr lin)

(* --- the digest-keyed compile cache ----------------------------------- *)

let cache : (compiled, string) result Memo.t = Memo.create "runtime.specializer"

let m_compiles = Metrics.counter "runtime.specializer.compiles"

(* per-phase latency: compilation (cache misses only) vs execution of the
   compiled closure — hit/miss counters alone leave compiled-plan time
   invisible in traces *)
let h_compile = Metrics.histogram "runtime.specializer.compile_s"
let h_run = Metrics.histogram "runtime.specializer.run_s"

let compiled plan md =
  let digest = Plan.digest plan in
  Memo.find_or_add cache (Memo.key [ digest; Format.asprintf "%a" Md_hom.pp md ]) (fun () ->
      let t0 = Clock.now_ns () in
      let result =
        Trace.with_span ~cat:"runtime" "specializer.compile"
          ~args:[ ("hom", md.Md_hom.hom_name); ("digest", digest) ]
          (fun () -> compile ~digest plan md)
      in
      let dt = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0) in
      Metrics.observe h_compile dt;
      Profile.add ~digest ~path:"phase:specializer.compile" dt;
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
          ~args:[ ("hom", md.Md_hom.hom_name); ("digest", c.digest) ]
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
