module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Index_fn = Mdh_tensor.Index_fn
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module Typecheck = Mdh_expr.Typecheck
module Plan = Mdh_lowering.Plan
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

(* Compilation happens once per call; instantiation happens once per job,
   against the job's own state. *)
type state = {
  bufs : float array array;  (** the float stores, in [compiled.stores] order *)
  point : int array;  (** current iteration point, length = rank *)
  base : int array;  (** cache-tile block origins, one slot per Tile level *)
  seg : int array;
      (** the job's current segment of the split's last dimension, from
          [seg.(0)] up to [seg.(1)] exclusive *)
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

(* An integer affine in the iteration point: [c0 + Σ_d co.(d) * point.(d)].
   Integer arithmetic wraps, so the rearrangement is exact. *)
type affine = { c0 : int; co : int array }

let aff_const rank c = { c0 = c; co = Array.make rank 0 }
let aff_add a b = { c0 = a.c0 + b.c0; co = Array.map2 ( + ) a.co b.co }
let aff_scale k a = { c0 = k * a.c0; co = Array.map (fun x -> k * x) a.co }
let aff_is_const a = Array.for_all (fun x -> x = 0) a.co

(* The least and the greatest value of [a] over the iteration box. *)
let aff_range (md : Md_hom.t) a =
  let lo = ref a.c0 and hi = ref a.c0 in
  Array.iteri
    (fun d k ->
      let v = k * (md.sizes.(d) - 1) in
      if v < 0 then lo := !lo + v else hi := !hi + v)
    a.co;
  (!lo, !hi)

(* What a register holds. Registers are float: a row computes in double,
   so a kind also says whether its values equal [Semantics.exec]'s bit for
   bit ("exact"). fp64 arithmetic is double arithmetic, integers below 2^53
   are exact, and masks are 0 or 1; but fp32 is rounded only where the
   expression casts, not after each operation, so a computed fp32 value
   (and an fp64 widened from one) is not exact. *)
type kind =
  | K_f32 of bool
      (** exact: a read, a constant, a select of exact values, or a cast
          of an exact fp64 or integer *)
  | K_f64 of bool
  | K_i32  (** wrapped to 32 bits after each add, sub and negation *)
  | K_i64  (** from an affine within 2^53: moved, compared and selected only *)
  | K_mask  (** a boolean, 1.0 or 0.0 *)

let exact = function K_f32 e | K_f64 e -> e | K_i32 | K_i64 | K_mask -> true

(* A compiled value. An integer stays affine in the iteration point as long
   as it can; a read is emitted where it is first used; a record is one
   value per field, so nothing record-shaped exists at run time. *)
type value =
  | V_aff of Scalar.ty * affine  (** an [Int32] or an [Int64] *)
  | V_read of kind * int * affine  (** a store's element at a flat address *)
  | V_reg of kind * int
  | V_rec of (string * value) list

(* Where a run finds an input's elements: an fp32 or fp64 input is its own
   store, read in place; a record input is unpacked into one store per
   field on each call. *)
type store = { input : string; field : string option }

type source =
  | Src_flat of int * kind  (** store, element kind *)
  | Src_fields of (string * int * kind) list  (** per field *)

type input = { inp : Md_hom.input; strides : int array; src : source }

(* The stores of [md]'s inputs, in input order, each record field its own. *)
let layout (md : Md_hom.t) =
  let stores = ref [] in
  let store (i : Md_hom.input) field =
    stores := (i.inp_name, field) :: !stores;
    List.length !stores - 1
  in
  let inputs =
    List.map
      (fun (i : Md_hom.input) ->
        let src =
          match i.inp_ty with
          | Scalar.Fp32 -> Src_flat (store i None, K_f32 true)
          | Scalar.Fp64 -> Src_flat (store i None, K_f64 true)
          | Scalar.Record fields ->
            Src_fields
              (List.map
                 (fun (f, ty) ->
                   let kind =
                     match ty with
                     | Scalar.Int32 -> K_i32
                     | Scalar.Fp32 -> K_f32 true
                     | Scalar.Fp64 -> K_f64 true
                     | ty ->
                       unsup "record input %s has a field %s of type %a" i.inp_name f
                         Scalar.pp_ty ty
                   in
                   (f, store i (Some f), kind))
                 fields)
          | ty -> unsup "input %s of type %a" i.inp_name Scalar.pp_ty ty
        in
        (i.inp_name, { inp = i; strides = row_major_strides i.inp_shape; src }))
      md.inputs
  in
  (inputs, Array.of_list (List.rev !stores))

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

(* An int32 sum or difference of two int32s, wrapped as [Semantics.exec]'s
   [Int32] arithmetic wraps: it lies within (-2^32, 2^32). *)
let[@inline] wrap_sum x =
  if x >= 2147483648.0 then x -. 4294967296.0
  else if x < -2147483648.0 then x +. 4294967296.0
  else x

let int_instr op ra rb r { regs; _ } =
  let a = regs.(ra) and b = regs.(rb) and d = regs.(r) in
  let go sign =
    fun _ n ->
      for l = 0 to n - 1 do
        Array.unsafe_set d l
          (wrap_sum (Array.unsafe_get a l +. (sign *. Array.unsafe_get b l)))
      done
  in
  match op with
  | Expr.Add -> go 1.0
  | Expr.Sub -> go (-1.0)
  | _ -> invalid_arg "Specializer.int_instr"

(* [0 - a], not [-a]: an integer register never holds -0, which a cast
   to fp64 would carry into a division's sign. *)
let int_neg_instr ra r { regs; _ } =
  let a = regs.(ra) and d = regs.(r) in
  fun _ n ->
    for l = 0 to n - 1 do
      Array.unsafe_set d l (wrap_sum (0.0 -. Array.unsafe_get a l))
    done

(* An integer below 2^53 in magnitude, wrapped to 32 bits. *)
let wrap_instr ra r { regs; _ } =
  let a = regs.(ra) and d = regs.(r) in
  fun _ n ->
    for l = 0 to n - 1 do
      (* [+. 0.0]: [Float.rem] keeps the dividend's sign, so a multiple
         of -2^32 would be -0 *)
      Array.unsafe_set d l
        (wrap_sum (Float.rem (Array.unsafe_get a l) 4294967296.0 +. 0.0))
    done

(* Min and max as [Semantics.exec] takes them ([Scalar.min_v]): the first
   operand unless the second is ordered before (after) it. *)
let minmax_instr op ra rb r { regs; _ } =
  let a = regs.(ra) and b = regs.(rb) and d = regs.(r) in
  let go sign =
    fun _ n ->
      for l = 0 to n - 1 do
        let x = Array.unsafe_get a l and y = Array.unsafe_get b l in
        Array.unsafe_set d l (if sign * Float.compare x y <= 0 then x else y)
      done
  in
  match op with
  | Expr.Min -> go 1
  | Expr.Max -> go (-1)
  | _ -> invalid_arg "Specializer.minmax_instr"

(* A comparison fills a mask, ordering as [Semantics.exec] does
   ([Scalar.compare_num], [Scalar.equal]): by [Float.compare], which is
   exact on every kind a row compares. *)
let[@inline] holds op c =
  match op with
  | Expr.Eq -> c = 0
  | Expr.Ne -> c <> 0
  | Expr.Lt -> c < 0
  | Expr.Le -> c <= 0
  | Expr.Gt -> c > 0
  | Expr.Ge -> c >= 0
  | _ -> invalid_arg "Specializer.holds"

let[@inline] cmp_loop op (a : float array) (b : float array) (d : float array) n =
  for l = 0 to n - 1 do
    let c = Float.compare (Array.unsafe_get a l) (Array.unsafe_get b l) in
    Array.unsafe_set d l (if holds op c then 1.0 else 0.0)
  done

let cmp_instr op ra rb r { regs; _ } =
  let a = regs.(ra) and b = regs.(rb) and d = regs.(r) in
  match op with
  | Expr.Eq -> fun _ n -> cmp_loop Expr.Eq a b d n
  | Expr.Ne -> fun _ n -> cmp_loop Expr.Ne a b d n
  | Expr.Lt -> fun _ n -> cmp_loop Expr.Lt a b d n
  | Expr.Le -> fun _ n -> cmp_loop Expr.Le a b d n
  | Expr.Gt -> fun _ n -> cmp_loop Expr.Gt a b d n
  | Expr.Ge -> fun _ n -> cmp_loop Expr.Ge a b d n
  | _ -> invalid_arg "Specializer.cmp_instr"

let logic_instr op ra rb r { regs; _ } =
  let a = regs.(ra) and b = regs.(rb) and d = regs.(r) in
  let go both =
    fun _ n ->
      for l = 0 to n - 1 do
        let x = Array.unsafe_get a l <> 0.0 and y = Array.unsafe_get b l <> 0.0 in
        Array.unsafe_set d l (if (if both then x && y else x || y) then 1.0 else 0.0)
      done
  in
  match op with
  | Expr.And -> go true
  | Expr.Or -> go false
  | _ -> invalid_arg "Specializer.logic_instr"

let not_instr ra r { regs; _ } =
  let a = regs.(ra) and d = regs.(r) in
  fun _ n ->
    for l = 0 to n - 1 do
      Array.unsafe_set d l (1.0 -. Array.unsafe_get a l)
    done

(* Both branches are computed over the whole strip; the mask picks. *)
let select_instr rc ra rb r { regs; _ } =
  let c = regs.(rc) and a = regs.(ra) and b = regs.(rb) and d = regs.(r) in
  fun _ n ->
    for l = 0 to n - 1 do
      Array.unsafe_set d l
        (if Array.unsafe_get c l <> 0.0 then Array.unsafe_get a l else Array.unsafe_get b l)
    done

let mov_instr ra r { regs; _ } =
  let a = regs.(ra) and d = regs.(r) in
  fun _ n -> Array.blit a 0 d 0 n

type program = {
  code : instr array;  (** in evaluation order *)
  consts : (int * float) list;  (** registers filled once per job *)
  nregs : int;
  results : int array;  (** the value's registers, one per field of its type *)
}

(* The register keys a program computes once: reads, ramps, constants. *)
type slot = Slot_read of int * affine | Slot_ramp of bool * affine | Slot_const of int64

(* A program under construction: instructions are emitted in evaluation
   order over numbered registers, each written once. *)
type emitter = {
  md : Md_hom.t;
  row_dim : int;
  inputs : (string * input) list;
  mutable nregs : int;
  mutable code : instr list;  (** newest first *)
  mutable consts : (int * float) list;
  slots : (slot, int) Hashtbl.t;
}

let emitter md ~row_dim inputs =
  { md; row_dim; inputs; nregs = 0; code = []; consts = []; slots = Hashtbl.create 16 }

let fresh b =
  let r = b.nregs in
  b.nregs <- r + 1;
  r

let emit b mk =
  let r = fresh b in
  b.code <- mk r :: b.code;
  r

let slot b key mk =
  match Hashtbl.find_opt b.slots key with
  | Some r -> r
  | None ->
    let r = mk () in
    Hashtbl.replace b.slots key r;
    r

let const b x =
  slot b (Slot_const (Int64.bits_of_float x)) (fun () ->
      let r = fresh b in
      b.consts <- (r, x) :: b.consts;
      r)

let int_kind = function Scalar.Int64 -> K_i64 | _ -> K_i32

(* Whether [a] leaves int32 somewhere in the iteration box, where
   [Semantics.exec]'s int32 arithmetic wraps it. *)
let wraps32 b a =
  let lo, hi = aff_range b.md a in
  lo < -(1 lsl 31) || hi >= 1 lsl 31

(* An affine integer in a register, exactly: an [Int32] wrapped to 32
   bits as [Semantics.exec]'s arithmetic wraps it, once, which is the same
   modulo 2^32; an [Int64] within 2^53, where a double holds it. *)
let ramp b ty a =
  let lo, hi = aff_range b.md a in
  if lo < -(1 lsl 53) || hi >= 1 lsl 53 then
    unsup "%a integer beyond 2^53 over the iteration box" Scalar.pp_ty ty;
  let wraps = ty <> Scalar.Int64 && wraps32 b a in
  if aff_is_const a then
    const b (float_of_int (if wraps then Int32.to_int (Int32.of_int a.c0) else a.c0))
  else
    slot b (Slot_ramp (wraps, a)) (fun () ->
        let r = emit b (ramp_instr (strided ~row_dim:b.row_dim a)) in
        if wraps then emit b (wrap_instr r) else r)

let reg b = function
  | V_reg (k, r) -> (k, r)
  | V_read (k, s, a) ->
    let mk () = emit b (read_instr s (strided ~row_dim:b.row_dim a)) in
    (k, slot b (Slot_read (s, a)) mk)
  | V_aff (ty, a) -> (int_kind ty, ramp b ty a)
  | V_rec _ -> unsup "record where a scalar is expected"

let mask b v =
  match reg b v with K_mask, r -> r | _ -> unsup "non-boolean condition"

let rec constant b = function
  | Scalar.F32 x -> V_reg (K_f32 true, const b (round_f32 x))
  | Scalar.F64 x -> V_reg (K_f64 true, const b x)
  | Scalar.I32 x -> V_aff (Scalar.Int32, aff_const (Md_hom.rank b.md) (Int32.to_int x))
  | Scalar.I64 x -> V_aff (Scalar.Int64, aff_const (Md_hom.rank b.md) (Int64.to_int x))
  | Scalar.B v -> V_reg (K_mask, const b (if v then 1.0 else 0.0))
  | Scalar.C _ -> unsup "char constant"
  | Scalar.R fields -> V_rec (List.map (fun (f, v) -> (f, constant b v)) fields)

let arith_data b op vx vy =
  let kx, rx = reg b vx in
  let ky, ry = reg b vy in
  match (kx, ky, op) with
  | K_f32 _, K_f32 _, _ -> V_reg (K_f32 false, emit b (bin_instr op rx ry))
  | K_f64 ex, K_f64 ey, (Expr.Min | Expr.Max) ->
    V_reg (K_f64 (ex && ey), emit b (minmax_instr op rx ry))
  | K_f64 ex, K_f64 ey, _ -> V_reg (K_f64 (ex && ey), emit b (bin_instr op rx ry))
  | K_i32, K_i32, (Expr.Add | Expr.Sub) -> V_reg (K_i32, emit b (int_instr op rx ry))
  | K_i32, K_i32, (Expr.Min | Expr.Max) -> V_reg (K_i32, emit b (minmax_instr op rx ry))
  | K_i32, K_i32, _ -> unsup "int32 %a on data" Expr.pp_binop op
  | K_i64, _, _ | _, K_i64, _ -> unsup "int64 arithmetic on data"
  | _ -> unsup "%a of mismatched operands" Expr.pp_binop op

let arith_value b op vx vy =
  match (vx, vy, op) with
  | V_aff (ty, x), V_aff (_, y), Expr.Add -> V_aff (ty, aff_add x y)
  | V_aff (ty, x), V_aff (_, y), Expr.Sub -> V_aff (ty, aff_add x (aff_scale (-1) y))
  | V_aff (ty, x), V_aff (_, y), Expr.Mul when aff_is_const x -> V_aff (ty, aff_scale x.c0 y)
  | V_aff (ty, x), V_aff (_, y), Expr.Mul when aff_is_const y -> V_aff (ty, aff_scale y.c0 x)
  | V_aff (Scalar.Int32, _), V_aff _, (Expr.Min | Expr.Max) -> arith_data b op vx vy
  | V_aff _, V_aff _, _ ->
    unsup "integer %a not affine in the iteration variables" Expr.pp_binop op
  | _ -> arith_data b op vx vy

let compare_value b op vx vy =
  (match (vx, vy) with
  | V_rec _, _ | _, V_rec _ -> unsup "comparison %a of records" Expr.pp_binop op
  | _ -> ());
  let kx, rx = reg b vx in
  let ky, ry = reg b vy in
  if not (exact kx && exact ky) then
    unsup "comparison %a of computed fp32 values" Expr.pp_binop op;
  V_reg (K_mask, emit b (cmp_instr op rx ry))

let negate b = function
  | V_aff (ty, a) -> V_aff (ty, aff_scale (-1) a)
  | v -> (
    match reg b v with
    | K_f32 _, r -> V_reg (K_f32 false, emit b (neg_instr r))
    | K_f64 e, r -> V_reg (K_f64 e, emit b (neg_instr r))
    | K_i32, r -> V_reg (K_i32, emit b (int_neg_instr r))
    | K_i64, _ -> unsup "int64 arithmetic on data"
    | K_mask, _ -> unsup "negation of a boolean")

let rec select b mc vx vy =
  match (vx, vy) with
  | V_rec fx, V_rec fy ->
    V_rec
      (List.map
         (fun (f, x) ->
           match List.assoc_opt f fy with
           | Some y -> (f, select b mc x y)
           | None -> unsup "branches with different fields")
         fx)
  | V_aff (_, x), V_aff (_, y) when x = y -> vx
  | _ ->
    let kx, rx = reg b vx in
    let ky, ry = reg b vy in
    let kind =
      match (kx, ky) with
      | K_f32 ex, K_f32 ey -> K_f32 (ex && ey)
      | K_f64 ex, K_f64 ey -> K_f64 (ex && ey)
      | k, _ -> k
    in
    if rx = ry then V_reg (kind, rx) else V_reg (kind, emit b (select_instr mc rx ry))

let cast b ty v =
  match (ty, v) with
  | Scalar.Int64, V_aff (Scalar.Int32, a) when wraps32 b a ->
    (* widened after [Semantics.exec] wrapped it *)
    V_reg (K_i64, ramp b Scalar.Int32 a)
  | (Scalar.Int32 | Scalar.Int64), V_aff (_, a) -> V_aff (ty, a)
  | Scalar.Fp32, V_aff (ity, a) ->
    (* an integer beyond 2^24 rounds on its way to fp32 *)
    let r = ramp b ity a in
    let lo, hi = aff_range b.md a in
    if lo >= -(1 lsl 24) && hi <= 1 lsl 24 then V_reg (K_f32 true, r)
    else V_reg (K_f32 true, emit b (round_instr r))
  | Scalar.Fp64, V_aff (ity, a) -> V_reg (K_f64 true, ramp b ity a)
  | _, V_rec _ -> unsup "cast of a record"
  | _ -> (
    match (ty, reg b v) with
    | Scalar.Fp32, ((K_f32 e | K_f64 e), r) -> V_reg (K_f32 e, emit b (round_instr r))
    | Scalar.Fp32, ((K_i32 | K_i64), r) -> V_reg (K_f32 true, emit b (round_instr r))
    | Scalar.Fp64, ((K_f32 e | K_f64 e), r) -> V_reg (K_f64 e, r)
    | Scalar.Fp64, ((K_i32 | K_i64), r) -> V_reg (K_f64 true, r)
    | Scalar.Int32, (K_i32, r) -> V_reg (K_i32, r)
    | Scalar.Int32, (K_i64, _) -> unsup "int64 data cast to int32"
    | Scalar.Int64, ((K_i32 | K_i64), r) -> V_reg (K_i64, r)
    | (Scalar.Int32 | Scalar.Int64), ((K_f32 _ | K_f64 _), _) -> unsup "float-to-integer cast"
    | _, (K_mask, _) -> unsup "cast of a boolean"
    | _ -> unsup "cast to %a" Scalar.pp_ty ty)

(* Compile [e] in [env] to a value, emitting what it computes, or raise
   [Unsupported] naming the first form a row cannot compute. Under a
   [branch] — an [If] arm or the right operand of [And]/[Or], which
   [Semantics.exec] may skip but a row computes at every lane — every
   read must be proven in range over the iteration box. *)
let rec value b env ~branch e =
  match e with
  | Expr.Const v -> constant b v
  | Expr.Idx name ->
    let d = dim_pos b.md name in
    V_aff
      (Scalar.Int32,
       { c0 = 0; co = Array.init (Md_hom.rank b.md) (fun e -> if e = d then 1 else 0) })
  | Expr.Var name -> (
    match List.assoc_opt name env with
    | Some v -> v
    | None -> unsup "unbound local %s" name)
  | Expr.Read (buf, idxs) -> read b env ~branch buf idxs
  | Expr.Binop
      (((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Min | Expr.Max) as op), x, y) ->
    let vx = value b env ~branch x in
    let vy = value b env ~branch y in
    arith_value b op vx vy
  | Expr.Binop (((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op), x, y)
    ->
    let vx = value b env ~branch x in
    let vy = value b env ~branch y in
    compare_value b op vx vy
  | Expr.Binop (((Expr.And | Expr.Or) as op), x, y) ->
    let mx = mask b (value b env ~branch x) in
    let my = mask b (value b env ~branch:true y) in
    V_reg (K_mask, emit b (logic_instr op mx my))
  | Expr.Unop (Expr.Not, x) ->
    V_reg (K_mask, emit b (not_instr (mask b (value b env ~branch x))))
  | Expr.Unop (Expr.Neg, x) -> negate b (value b env ~branch x)
  | Expr.If (c, x, y) ->
    let mc = mask b (value b env ~branch c) in
    let vx = value b env ~branch:true x in
    let vy = value b env ~branch:true y in
    select b mc vx vy
  | Expr.Let (name, v, body) -> value b ((name, value b env ~branch v) :: env) ~branch body
  | Expr.Field (x, name) -> (
    match value b env ~branch x with
    | V_rec fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> unsup "record has no field %s" name)
    | _ -> unsup "field %s of a non-record" name)
  | Expr.MkRecord fields ->
    V_rec (List.map (fun (f, fe) -> (f, value b env ~branch fe)) fields)
  | Expr.Cast (ty, x) -> cast b ty (value b env ~branch x)

(* A read whose indices are affine in the iteration variables (integer
   [Let]s substituted) is one flat address into the input's store, or
   into each field's store of a record input. *)
and read b env ~branch buf idxs =
  let i =
    match List.assoc_opt buf b.inputs with
    | Some i -> i
    | None -> unsup "read of non-input buffer %s" buf
  in
  if List.length idxs <> Array.length i.strides then unsup "rank mismatch reading %s" buf;
  let affs =
    List.map
      (fun ix ->
        match value b env ~branch ix with
        | V_aff (Scalar.Int32, a) when wraps32 b a ->
          unsup "index of %s leaves int32 over the iteration box" buf
        | V_aff (_, a) -> a
        | _ -> unsup "index of %s not affine in the iteration variables" buf)
      idxs
  in
  if branch then
    List.iteri
      (fun j a ->
        let lo, hi = aff_range b.md a in
        if lo < 0 || hi >= i.inp.inp_shape.(j) then
          unsup "read of %s under a branch not proven in range" buf)
      affs;
  let addr =
    List.fold_left
      (fun (acc, j) a -> (aff_add acc (aff_scale i.strides.(j) a), j + 1))
      (aff_const (Md_hom.rank b.md) 0, 0)
      affs
    |> fst
  in
  match i.src with
  | Src_flat (s, k) -> V_read (k, s, addr)
  | Src_fields fields -> V_rec (List.map (fun (f, s, k) -> (f, V_read (k, s, addr))) fields)

(* The fields of a value of type [ty], in the type's order: a record's
   fields, or the one unnamed field of a scalar. *)
let fields_of ty = match ty with Scalar.Record fields -> fields | ty -> [ ("", ty) ]

let field_values ty v =
  match (ty, v) with
  | Scalar.Record fields, V_rec fv ->
    List.map
      (fun (f, _) ->
        match List.assoc_opt f fv with
        | Some v -> v
        | None -> unsup "record value has no field %s" f)
      fields
  | Scalar.Record _, _ -> unsup "non-record value for a record type"
  | _, V_rec _ -> unsup "record value for a scalar type"
  | _, v -> [ v ]

let finish b results =
  { code = Array.of_list (List.rev b.code); consts = b.consts; nregs = b.nregs; results }

(* The program computing output [o]'s value, one register per field of
   its type. *)
let value_program md ~row_dim inputs (o : Md_hom.output) =
  let b = emitter md ~row_dim inputs in
  let v = value b [] ~branch:false o.value in
  let out = List.map (reg b) (field_values o.out_ty v) in
  (finish b (Array.of_list (List.map snd out)), List.map fst out)

(* The two reads of [o]'s value when it is [x * y] of two float reads,
   each as its store and its address along the row. Called on a value
   whose program compiled, so neither operand is refused. *)
let product_reads md ~row_dim inputs (o : Md_hom.output) =
  match o.value with
  | Expr.Binop (Expr.Mul, x, y) -> (
    let b = emitter md ~row_dim inputs in
    match (value b [] ~branch:false x, value b [] ~branch:false y) with
    | V_read ((K_f32 _ | K_f64 _), sx, ax), V_read ((K_f32 _ | K_f64 _), sy, ay) ->
      Some ((sx, strided ~row_dim ax), (sy, strided ~row_dim ay))
    | _ -> None)
  | _ -> None

(* A custom operator's body as a program: [lhs] and [rhs] are parameter
   registers, one per field of the element type [ty], which the fold
   fills with an accumulator cell and a lane (or a partial's cell); the
   results are fresh registers. A parameter is exact as long as the values
   folded into it are: the value's kind, and the body's own results. *)
type fold_program = { fprog : program; lhs : int array; rhs : int array }

let fold_program md (fn : Combine.custom_fn) ty (kinds : kind list) =
  let body =
    match fn.Combine.body with
    | Some body -> body
    | None -> unsup "operator %s has no expression body" fn.Combine.fn_name
  in
  let env = { Typecheck.iter_vars = []; buffer_ty = (fun _ -> None) } in
  (match Typecheck.check ~locals:[ ("lhs", ty); ("rhs", ty) ] env ~expected:ty body with
  | Ok () -> ()
  | Error _ ->
    unsup "operator %s does not combine %a values" fn.Combine.fn_name Scalar.pp_ty ty);
  let fields = fields_of ty in
  let rec attempt exact_in =
    let b = emitter md ~row_dim:0 [] in
    let param () =
      let regs = List.map (fun _ -> fresh b) fields in
      let vals =
        List.map2
          (fun ((_, fty), e) r ->
            let kind =
              match fty with
              | Scalar.Fp32 -> K_f32 e
              | Scalar.Fp64 -> K_f64 e
              | Scalar.Int32 -> K_i32
              | Scalar.Int64 -> K_i64
              | Scalar.Bool -> K_mask
              | fty -> unsup "operator %s over %a values" fn.Combine.fn_name Scalar.pp_ty fty
            in
            V_reg (kind, r))
          (List.combine fields exact_in) regs
      in
      let v =
        match ty with
        | Scalar.Record _ -> V_rec (List.map2 (fun (f, _) v -> (f, v)) fields vals)
        | _ -> List.hd vals
      in
      (v, Array.of_list regs)
    in
    let lhs, lregs = param () in
    let rhs, rregs = param () in
    let v = value b [ ("lhs", lhs); ("rhs", rhs) ] ~branch:false body in
    let out = List.map (reg b) (field_values ty v) in
    let is_param r = Array.mem r lregs || Array.mem r rregs in
    let results =
      List.map (fun (_, r) -> if is_param r then emit b (mov_instr r) else r) out
    in
    let exact_out = List.map2 (fun e (k, _) -> e && exact k) exact_in out in
    if exact_out <> exact_in then attempt exact_out
    else { fprog = finish b (Array.of_list results); lhs = lregs; rhs = rregs }
  in
  attempt (List.map exact kinds)

(* --- loop-nest compilation ------------------------------------------- *)

type nest_step =
  | S_loop of { dim : int; extent : int }
  | S_tile_outer of { tile : int; extent : int; slot : int }
  | S_tile_inner of { dim : int; tile : int; extent : int; slot : int }

(* One loop of a job, by what gives its range: the job's segment of the
   split's last dimension ([state.seg]), which carries its dimension, or
   a nest step (its index in [nest], which is also its timer slot). *)
type loop = L_seg of int | L_step of int

(* How write-back maps the accumulator onto an output's store. *)
type view =
  | View_affine of { o0 : int; extents : int array; weights : int array }
      (** flat output address [o0 + Σ weights.(k) * x_k] over the
          accumulator's dimensions of extent > 1, outermost first *)
  | View_opaque  (** through [Index_fn.apply], which checks every index *)

(* How an output's accumulator combines the points of a cell: stored
   once (no pw dimension), folded by a builtin inlined into the strip
   loop, or folded by a custom operator's compiled body, each cell seeded
   by its first point. *)
type reduce = Store | Builtin of fold | Custom of Combine.custom_fn

(* A row whose value is [x * y], two float reads, folded by a builtin
   into one cell (a pw row): the fold, and each read's store and address
   along the row. Such a row runs as one loop per strip, with no
   registers and no instruction calls. *)
type product = { pfold : fold; x : int * strided; y : int * strided }

type out_plan = {
  out : Md_hom.output;
  prog : program;
  fold : fold_program option;  (** the custom operator's body *)
  product : product option;
  view : view;
}

type compiled = {
  digest : string;
      (** [Plan.digest] of the source plan, the profile key; [""] unless a
          profile or a trace is on *)
  rank : int;
  nest : nest_step array;  (** the plan's sequential levels, outermost first *)
  nest_levels : int array;
      (** plan-level index ([Plan.levels] position) of each nest step *)
  loops : loop array;  (** a job's loops, outermost first; the last is the row *)
  split : (int * int) array;
      (** the (dim, extent)s a run cuts into jobs, outer first: the
          [Distribute] level's, else the [Tree_reduce] level's, else none *)
  split_level : int;  (** plan-level index of the split's level, or -1 *)
  partials : bool;
      (** the split is a [Tree_reduce] level: each job folds a private
          accumulator, and the run combines them in chunk order *)
  reglen : int;  (** register length: {!strip} capped at the longest row *)
  acc_shape : int array;  (** [Md_hom.result_shape] *)
  acc_size : int;
  acc_addr : strided;  (** accumulator address; no terms on pw dims *)
  reduce : reduce;  (** by the (single) pw operator *)
  scans : (int * fold) array;  (** ps dims with their operators, innermost first *)
  scan_levels : int array;
      (** plan-level index of each [scans] entry's [Scan] level, or -1 *)
  n_base : int;
  stores : store array;  (** the float stores a run binds, {!layout} order *)
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
    (* one pw operator: the accumulator folds every pw dimension with it
       (the reference executor enforces the same single-operator
       restriction). A builtin folds in double, a custom operator through
       its compiled body. *)
    let pw_ops =
      List.filter_map
        (fun d ->
          match md.combine_ops.(d) with
          | Combine.Pw fn -> Some fn
          | _ -> None)
        (List.init rank Fun.id)
    in
    let reduce =
      match pw_ops with
      | [] -> Store
      | fn :: rest -> (
        if List.exists (fun f -> not (String.equal f.Combine.fn_name fn.Combine.fn_name)) rest
        then unsup "multiple distinct pw operators";
        match fold_of fn with
        | Some op -> Builtin op
        | None ->
          if fn.Combine.body = None then
            unsup "operator %s has no expression body" fn.Combine.fn_name;
          (* the nest may visit the points of a cell in another order than
             the row-major one [Semantics.exec] folds in, which regroups
             and reorders its left fold *)
          if rest <> [] && not (fn.Combine.associative && fn.Combine.commutative) then
            unsup "operator %s over several pw dimensions is not associative and commutative"
              fn.Combine.fn_name;
          Custom fn)
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
    (* The split, the one level a run cuts into jobs: the Distribute
       level, whose jobs write disjoint slabs of the accumulator, or in a
       plan without one the Tree_reduce level, whose jobs fold partials. *)
    let dist = Plan.distributed plan in
    let level_index pred =
      let rec go i = function
        | [] -> -1
        | l :: rest -> if pred l then i else go (i + 1) rest
      in
      go 0 plan.Plan.levels
    in
    let split_level, split =
      match (dist, Plan.tree plan) with
      | _ :: _, _ ->
        (level_index (function Plan.Distribute _ -> true | _ -> false), Array.of_list dist)
      | [], Some (dim, extent, _) ->
        (level_index (function Plan.Tree_reduce _ -> true | _ -> false), [| (dim, extent) |])
      | [], None -> (-1, [||])
    in
    (* loop nest from the plan's other levels, in level order, a tree
       under a Distribute level included; the split is driven by the job
       above it. Each step keeps its position in [plan.levels] so the
       profiler can address measured time back to the plan tree. *)
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
          | Plan.Tree_reduce { dim; extent; _ } when dist <> [] ->
            Some (lvl_idx, S_loop { dim; extent })
          | Plan.Distribute _ | Plan.Tree_reduce _ -> None)
        (List.mapi (fun i l -> (i, l)) plan.Plan.levels)
    in
    let steps = Array.of_list (List.map snd nest) in
    (* a job's loops, outermost first: its segment of the split's last
       dimension, then the nest steps *)
    let loops =
      (if Array.length split = 0 then [] else [ L_seg (fst split.(Array.length split - 1)) ])
      @ List.init (Array.length steps) (fun s -> L_step s)
    in
    (* the row, the last loop: its dimension and its longest range *)
    let row loops =
      match List.rev loops with
      | [] -> unsup "plan has no levels"
      | L_seg _ :: _ -> split.(Array.length split - 1)
      | L_step s :: _ -> (
        match steps.(s) with
        | S_loop { dim; extent } -> (dim, extent)
        | S_tile_inner { dim; tile; _ } -> (dim, tile)
        | S_tile_outer _ -> unsup "plan nest ends in a tile loop")
    in
    (* A custom operator's body runs once per strip. Along a pw row the
       strip's lanes fold into one cell, one run per point; along a
       distributed dimension, a cc one, they are distinct cells and fold in
       one run, so a cc segment loop moves last (a tree split's segment is
       the pw dimension itself). Each cell still gets its points in the
       order the loops visit them, so the move is exact for any operator.
       A builtin keeps its pw row, which folds into one local. *)
    let loops =
      match (reduce, loops) with
      | Custom _, (L_seg d as seg) :: rest
        when astride.(d) <> 0 && astride.(fst (row loops)) = 0 ->
        rest @ [ seg ]
      | _ -> loops
    in
    let row_dim, row_extent = row loops in
    let inputs, stores = layout md in
    let outs =
      List.map
        (fun (o : Md_hom.output) ->
          (match (o.out_ty, reduce) with
          | (Scalar.Fp32 | Scalar.Fp64), _ -> ()
          | Scalar.Record _, (Store | Custom _) when Array.length scans = 0 -> ()
          | Scalar.Record _, _ -> unsup "builtin reduction of record output %s" o.out_name
          | ty, _ -> unsup "output %s of type %a" o.out_name Scalar.pp_ty ty);
          let prog, kinds = value_program md ~row_dim inputs o in
          let fold =
            match reduce with
            | Custom fn -> Some (fold_program md fn o.out_ty kinds)
            | Store | Builtin _ -> None
          in
          let product =
            match reduce with
            | Builtin pfold when astride.(row_dim) = 0 ->
              Option.map
                (fun (x, y) -> { pfold; x; y })
                (product_reads md ~row_dim inputs o)
            | Store | Builtin _ | Custom _ -> None
          in
          { out = o; prog; fold; product; view = view_of acc_shape o })
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
        nest = steps;
        nest_levels = Array.of_list (List.map fst nest);
        loops = Array.of_list loops;
        split; split_level;
        partials = dist = [] && Array.length split > 0;
        reglen = max 1 (Int.min strip row_extent);
        acc_shape; acc_size;
        acc_addr = strided ~row_dim { c0 = 0; co = astride };
        reduce; scans; scan_levels; n_base = !n_base;
        stores = Array.map (fun (input, field) -> { input; field }) stores;
        outs }
  with Unsupported msg -> Error msg

(* --- execution -------------------------------------------------------- *)

let mk_state c bufs =
  { bufs;
    point = Array.make (max 1 c.rank) 0;
    base = Array.make (max 1 c.n_base) 0;
    seg = Array.make 2 0 }

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

(* An output's accumulator: one array per field of its type, and for a
   custom operator the cells already seeded by their first point. *)
type acc = { cells : float array array; seen : Bytes.t }

(* A program's registers and instructions, instantiated for one job. *)
type inst = { i_regs : float array array; i_run : (int -> int -> unit) array }

let instantiate c st (prog : program) =
  let regs = Array.init prog.nregs (fun _ -> Array.create_float c.reglen) in
  List.iter (fun (r, x) -> Array.fill regs.(r) 0 c.reglen x) prog.consts;
  let ctx = { st; regs } in
  { i_regs = regs; i_run = Array.map (fun i -> i ctx) prog.code }

let[@inline] run_code run x0 n =
  for k = 0 to Array.length run - 1 do
    (Array.unsafe_get run k) x0 n
  done

(* A custom operator's body, instantiated: its parameter and result
   registers, by field. *)
type body = {
  b_run : (int -> int -> unit) array;
  b_lhs : float array array;
  b_rhs : float array array;
  b_res : float array array;
}

let instantiate_body c st (f : fold_program) =
  let i = instantiate c st f.fprog in
  let pick = Array.map (fun r -> i.i_regs.(r)) in
  { b_run = i.i_run; b_lhs = pick f.lhs; b_rhs = pick f.rhs; b_res = pick f.fprog.results }

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

(* Fold the products [x.(x0 + xstep * l) * y.(y0 + ystep * l)], l in
   [0, n), into cell [i] in lane order: what two reads, a multiply and
   [fold_one] compute, in one pass. The caller has checked every address,
   so the loop makes no call and keeps its operands in registers. *)
let[@inline] fold_product op (acc : float array) i (x : float array) x0 xstep
    (y : float array) y0 ystep n =
  let s = ref (Array.unsafe_get acc i) and xi = ref x0 and yi = ref y0 in
  for _ = 1 to n do
    s := combine op !s (Array.unsafe_get x !xi *. Array.unsafe_get y !yi);
    xi := !xi + xstep;
    yi := !yi + ystep
  done;
  Array.unsafe_set acc i !s

(* one out-of-line loop per operator, each with no call in it *)
let product_add acc i x x0 xstep y y0 ystep n = fold_product F_add acc i x x0 xstep y y0 ystep n
let product_mul acc i x x0 xstep y y0 ystep n = fold_product F_mul acc i x x0 xstep y y0 ystep n
let product_min acc i x x0 xstep y y0 ystep n = fold_product F_min acc i x x0 xstep y y0 ystep n
let product_max acc i x x0 xstep y y0 ystep n = fold_product F_max acc i x x0 xstep y y0 ystep n

(* The strip step of a product row: both reads from the strip's start,
   each span checked as a read instruction checks it, folded into the
   row's one cell. *)
let product_strip c p st acc =
  let point = st.point and cell = acc.cells.(0) in
  let (xb, xs), (yb, ys) = (p.x, p.y) in
  let x = st.bufs.(xb) and y = st.bufs.(yb) in
  let fold =
    match p.pfold with
    | F_add -> product_add
    | F_mul -> product_mul
    | F_min -> product_min
    | F_max -> product_max
  in
  fun x0 n ->
    let xa = row_base xs point + (xs.step * x0) and ya = row_base ys point + (ys.step * x0) in
    check_span xa xs.step n (Array.length x);
    check_span ya ys.step n (Array.length y);
    let i = row_base c.acc_addr point in
    check_span i 0 1 (Array.length cell);
    fold cell i x xa xs.step y ya ys.step n

(* Fold the lanes of a strip into cell [i], one after another: the body
   runs on one lane, [lhs] carrying the cell from lane to lane. *)
let fold_lanes bd acc i (vals : float array array) n =
  let cells = acc.cells in
  let nf = Array.length cells in
  let l0 =
    if Bytes.get acc.seen i <> '\000' then 0
    else begin
      for k = 0 to nf - 1 do
        cells.(k).(i) <- vals.(k).(0)
      done;
      Bytes.set acc.seen i '\001';
      1
    end
  in
  if l0 < n then begin
    for k = 0 to nf - 1 do
      bd.b_lhs.(k).(0) <- cells.(k).(i)
    done;
    for l = l0 to n - 1 do
      for k = 0 to nf - 1 do
        Array.unsafe_set bd.b_rhs.(k) 0 (Array.unsafe_get vals.(k) l)
      done;
      run_code bd.b_run 0 1;
      for k = 0 to nf - 1 do
        Array.unsafe_set bd.b_lhs.(k) 0 (Array.unsafe_get bd.b_res.(k) 0)
      done
    done;
    for k = 0 to nf - 1 do
      cells.(k).(i) <- bd.b_lhs.(k).(0)
    done
  end

(* Fold value [v0 + l] into cell [i0 + step * l], all distinct, in one
   run of the body over the strip; a cell not seen yet takes its value
   (the body's results are fresh registers, so [rhs] still holds it). *)
let fold_cells bd acc i0 step (vals : float array array) v0 n =
  let cells = acc.cells and seen = acc.seen in
  check_span i0 step n (Bytes.length seen);
  let nf = Array.length cells in
  for k = 0 to nf - 1 do
    let cell = cells.(k) and lhs = bd.b_lhs.(k) in
    for l = 0 to n - 1 do
      Array.unsafe_set lhs l (Array.unsafe_get cell (i0 + (step * l)))
    done;
    Array.blit vals.(k) v0 bd.b_rhs.(k) 0 n
  done;
  run_code bd.b_run 0 n;
  for l = 0 to n - 1 do
    let i = i0 + (step * l) in
    let src = if Bytes.unsafe_get seen i = '\000' then bd.b_rhs else bd.b_res in
    Bytes.unsafe_set seen i '\001';
    for k = 0 to nf - 1 do
      Array.unsafe_set cells.(k) i (Array.unsafe_get src.(k) l)
    done
  done

(* Fold a strip's point values [vals] (one register per field) into the
   accumulator, each element in iteration order: along a pw row into one
   cell, at the row's accumulator stride otherwise. *)
let fold_strip c op st acc (vals : float array array) =
  let s = c.acc_addr and point = st.point in
  let step = s.step in
  match c.reduce with
  | Builtin op when step = 0 -> (
    let acc = acc.cells.(0) and v = vals.(0) in
    match op with
    | F_add -> fun _ n -> fold_one F_add acc (row_base s point) v n
    | F_mul -> fun _ n -> fold_one F_mul acc (row_base s point) v n
    | F_min -> fun _ n -> fold_one F_min acc (row_base s point) v n
    | F_max -> fun _ n -> fold_one F_max acc (row_base s point) v n)
  | Builtin op -> (
    let acc = acc.cells.(0) and v = vals.(0) in
    let at x0 = row_base s point + (step * x0) in
    match op with
    | F_add -> fun x0 n -> fold_strided F_add acc (at x0) step v n
    | F_mul -> fun x0 n -> fold_strided F_mul acc (at x0) step v n
    | F_min -> fun x0 n -> fold_strided F_min acc (at x0) step v n
    | F_max -> fun x0 n -> fold_strided F_max acc (at x0) step v n)
  | Custom _ ->
    let bd = instantiate_body c st (Option.get op.fold) in
    if step = 0 then fun _ n -> fold_lanes bd acc (row_base s point) vals n
    else fun x0 n -> fold_cells bd acc (row_base s point + (step * x0)) step vals 0 n
  | Store ->
    fun x0 n ->
      let i0 = row_base s point + (step * x0) in
      check_span i0 step n c.acc_size;
      for k = 0 to Array.length vals - 1 do
        let cell = acc.cells.(k) and v = vals.(k) in
        for l = 0 to n - 1 do
          Array.unsafe_set cell (i0 + (step * l)) (Array.unsafe_get v l)
        done
      done

(* The row step of one job for output [op]: [row lo hi] evaluates the
   points [lo, hi) of the row dimension, at the state's other coordinates,
   one strip at a time into the registers, and folds each strip into
   [acc]; a product row folds its strip in one loop, with no registers.
   With [timers], every strip is charged to the leaf slot. *)
let stage_row c op st acc timers =
  let run =
    match op.product with
    | Some p -> product_strip c p st acc
    | None ->
      let i = instantiate c st op.prog in
      let fold = fold_strip c op st acc (Array.map (fun r -> i.i_regs.(r)) op.prog.results) in
      let code = i.i_run in
      fun x0 n ->
        run_code code x0 n;
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

(* Stage one job's loops as closures, outermost first: each loop sets its
   coordinate and calls the next, and the last calls [row] over its range.
   The segment loop ranges over the state's segment, and a nest step as
   the plan says; the returned thunk runs them all at the state's other
   coordinates. Only with [timers] is a nest step wrapped in [timed];
   unprofiled closures read no clock. *)
let stage_loops c st row timers =
  let point = st.point and base = st.base and seg = st.seg in
  let last = Array.length c.loops - 1 in
  let rec stage k =
    let inner = if k = last then ignore else stage (k + 1) in
    (* what loop [k] runs at the coordinates [lo, hi) of [dim] *)
    let over =
      if k = last then fun _ lo hi -> row lo hi
      else fun dim lo hi ->
        for x = lo to hi - 1 do
          point.(dim) <- x;
          inner ()
        done
    in
    match c.loops.(k) with
    | L_seg dim -> fun () -> over dim seg.(0) seg.(1)
    | L_step s -> (
      let f =
        match c.nest.(s) with
        | S_loop { dim; extent } -> fun () -> over dim 0 extent
        | S_tile_inner { dim; tile; extent; slot } ->
          fun () ->
            let b = base.(slot) in
            over dim b (Int.min (b + tile) extent)
        | S_tile_outer { tile; extent; slot } ->
          fun () ->
            let b = ref 0 in
            while !b < extent do
              base.(slot) <- !b;
              inner ();
              b := !b + tile
            done
      in
      match timers with Some tm -> timed tm s f | None -> f)
  in
  stage 0

(* --- per-level profiling ---------------------------------------------- *)

let level_path l = "L" ^ string_of_int l

(* The plan level a job's own loop driving (segment decode, state setup)
   is attributed to: the split's level when there is one, else the
   outermost nest step. *)
let driver_level c =
  if c.split_level >= 0 then c.split_level
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

let decode_split split point lin =
  let rest = ref lin in
  for d = Array.length split - 1 downto 0 do
    let dim, extent = split.(d) in
    point.(dim) <- !rest mod extent;
    rest := !rest / extent
  done

(* One job: the split's points [lo, lo + size), into [acc], which it
   returns. It walks its points in segments of the split's last
   dimension, cut where its chunk starts and ends, decodes the split's
   coordinates once per segment and runs the staged loops over it; with no
   split its one point is one segment. A profiled job flushes its level
   times once, at the end; its wall starts before its state and staged
   loops are set up, so that set-up is charged to the split's level with
   the rest of the job's loop control. *)
let run_job c bufs op ~profiling (lo, size) acc () =
  let t0 = if profiling then Clock.now_ns () else 0L in
  let st = mk_state c bufs in
  let n = Array.length c.nest in
  let timers =
    if profiling then
      Some { tot = Array.make (n + 1) 0.0; cnt = Array.make (n + 1) 0 }
    else None
  in
  let loops = stage_loops c st (stage_row c op st acc timers) timers in
  let ns = Array.length c.split in
  let extent = if ns = 0 then 1 else snd c.split.(ns - 1) in
  let i = ref lo and stop = lo + size in
  while !i < stop do
    decode_split c.split st.point !i;
    let x = !i mod extent in
    let len = Int.min (extent - x) (stop - !i) in
    st.seg.(0) <- x;
    st.seg.(1) <- x + len;
    loops ();
    i := !i + len
  done;
  Option.iter
    (flush_profile c ~wall:(Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0)))
    timers;
  acc

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
    let init = match c.reduce with Builtin op -> identity op | Store | Custom _ -> 0.0 in
    { cells =
        Array.map (fun _ -> Array.make c.acc_size init) op.prog.results;
      seen =
        (match c.reduce with
        | Custom _ -> Bytes.make c.acc_size '\000'
        | Store | Builtin _ -> Bytes.empty) }
  in
  let acc = fresh () in
  let points = Array.fold_left (fun a (_, extent) -> a * extent) 1 c.split in
  let job = run_job c bufs op ~profiling in
  (match
     if Pool.num_workers pool > 1 then
       Pool.split_range ~extent:points ~pieces:(Pool.chunk_budget pool)
     else [ (0, points) ]
   with
  | [ all ] -> ignore (job all acc ())
  | chunks when c.partials ->
    (* a tree split: per-chunk private accumulators over the whole result,
       combined in chunk order so associativity suffices. Each job visits
       every cell (its chunk is a nonempty range of the tree, every other
       dimension a full loop), so a partial folds in like a strip of
       values at stride 1 *)
    let partials =
      Pool.run_in_parallel pool
        (Array.of_list (List.map (fun r () -> job r (fresh ()) ()) chunks))
    in
    profile_segment c (level_path c.split_level) (fun () ->
        let size = c.acc_size in
        match c.reduce with
        | Builtin pw ->
          Array.iter (fun p -> fold_strided pw acc.cells.(0) 0 1 p.cells.(0) size) partials
        | _ ->
          let bd = instantiate_body c (mk_state c [||]) (Option.get op.fold) in
          Array.iter
            (fun p ->
              let b = ref 0 in
              while !b < size do
                let n = Int.min c.reglen (size - !b) in
                fold_cells bd acc !b 1 p.cells !b n;
                b := !b + n
              done)
            partials)
  | chunks ->
    (* a distributed split: disjoint accumulator slabs, shared array *)
    ignore (Pool.run_in_parallel pool (Array.of_list (List.map (fun r -> job r acc) chunks))));
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
        profile_segment c path (fun () -> post_scan op acc.cells.(0) ~stride ~extent))
    c.scans;
  acc

(* Where write-back puts an output: a float store, rounded for fp32; or a
   record tensor, packed one element at a time. *)
type dst = Floats of float array * bool | Records of Dense.t

(* Write the accumulator into the output, in place: along the view's
   affine form with a running address, one run of the innermost
   accumulator dimension per call of [put], a tight loop per kind. *)
let write_back c dst op acc =
  (* [put base w i0 len]: accumulator elements [i0, i0 + len) to output
     addresses [base + w * x] *)
  let put =
    match dst with
    | Floats (out, round) ->
      let a = acc.cells.(0) in
      fun base w i0 len ->
        for x = 0 to len - 1 do
          let v = a.(i0 + x) in
          out.(base + (w * x)) <- (if round then round_f32 v else v)
        done
    | Records t ->
      fun base w i0 len ->
        for x = 0 to len - 1 do
          Dense.set_record t (base + (w * x)) acc.cells (i0 + x)
        done
  in
  match op.view with
  | View_affine { o0; extents; weights } ->
    let r = Array.length extents in
    let i = ref 0 in
    let rec walk k base =
      if k = r - 1 then begin
        put base weights.(k) !i extents.(k);
        i := !i + extents.(k)
      end
      else
        for x = 0 to extents.(k) - 1 do
          walk (k + 1) (base + (weights.(k) * x))
        done
    in
    if r = 0 then put o0 0 0 1 else walk 0 o0
  | View_opaque ->
    let o = op.out in
    let lin = ref 0 in
    Shape.iter c.acc_shape (fun pt ->
        put (Shape.linearize o.Md_hom.out_shape (Index_fn.apply o.out_access.fn pt)) 0 !lin 1;
        incr lin)

(* --- compilation, once per call --------------------------------------- *)

(* per-phase latency: compilation vs execution of the compiled programs *)
let h_compile = Metrics.histogram "runtime.specializer.compile_s"
let h_run = Metrics.histogram "runtime.specializer.run_s"

(* A plan compiles in microseconds, less than any key that told two
   computations and plans apart would cost, so every call compiles. The
   digest is read only by a profile or a trace. *)
let compiled plan md =
  let digest =
    if Profile.enabled () || Trace.enabled () then Plan.digest plan else ""
  in
  let t0 = Clock.now_ns () in
  let result =
    Trace.with_span ~cat:"runtime" "specializer.compile"
      ~args:[ ("hom", md.Md_hom.hom_name); ("digest", digest) ]
      (fun () -> compile ~digest plan md)
  in
  let dt = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0) in
  Metrics.observe h_compile dt;
  Profile.add ~digest ~path:"phase:specializer.compile" dt;
  result

let supported plan md =
  match compiled plan md with Ok _ -> Ok () | Error e -> Error e

let clear () = ()

(* --- dispatch entry point --------------------------------------------- *)

(* The stores a run reads: a float input's own store, in place, and each
   field of a record input, unpacked — O(elements) per call, with no
   boxing per element. *)
let unpack c env =
  Array.map
    (fun s ->
      let d = Buffer.data (Buffer.env_find env s.input) in
      match s.field with
      | None -> Option.get (Dense.floats d)
      | Some f -> Dense.record_field d f)
    c.stores

let dst_of b =
  match Dense.floats (Buffer.data b) with
  | Some a -> Floats (a, Scalar.equal_ty (Buffer.ty b) Scalar.Fp32)
  | None -> Records (Buffer.data b)

let run pool (plan : Plan.t) (md : Md_hom.t) env =
  if Array.exists (fun s -> s = 0) md.sizes then Error "zero-extent iteration space"
  else
    match compiled plan md with
    | Error _ as e -> e
    | Ok c ->
      Trace.with_span ~cat:"runtime" "exec.specialized"
        ~args:[ ("hom", md.Md_hom.hom_name); ("digest", c.digest) ]
        (fun () ->
          let t0 = Clock.now_ns () in
          match
            (* every input supplied with its declared type and shape, and
               every record element of its type, or the run declines and
               the reference reports the mismatch *)
            let out_env = Semantics.alloc_outputs md env in
            if Array.exists (fun s -> s.field <> None) c.stores then
              (out_env, profile_segment c "unpack" (fun () -> unpack c env))
            else (out_env, unpack c env)
          with
          | exception Semantics.Semantic_error _ -> Error "input buffers do not match the plan"
          | exception Invalid_argument _ -> Error "a record input holds an element not of its type"
          | out_env, bufs ->
            List.iter
              (fun op ->
                let dst = dst_of (Buffer.env_find out_env op.out.Md_hom.out_name) in
                let acc = exec_output c pool bufs op in
                profile_segment c "writeback" (fun () -> write_back c dst op acc))
              c.outs;
            let dt = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0) in
            Metrics.observe h_run dt;
            Profile.add ~digest:c.digest ~path:"phase:specializer.run" dt;
            Ok out_env)

let try_run pool plan md env = Result.to_option (run pool plan md env)
