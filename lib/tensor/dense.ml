(* fp32 and fp64 elements live unboxed in a flat float array (the payload
   of their F32/F64 constructor); every other type keeps its boxed
   values. *)
type store = Flat of float array | Boxed of Scalar.value array

type t = { ty : Scalar.ty; shape : Shape.t; store : store }

let create ty shape =
  Shape.validate shape;
  let n = Shape.num_elements shape in
  let store =
    match ty with
    | Scalar.Fp32 | Scalar.Fp64 -> Flat (Array.make n 0.0)
    | _ -> Boxed (Array.make n (Scalar.zero ty))
  in
  { ty; shape; store }

let ty t = t.ty
let shape t = t.shape

let num_elements t =
  match t.store with Flat a -> Array.length a | Boxed a -> Array.length a

let floats t = match t.store with Flat a -> Some a | Boxed _ -> None

let[@inline] get_linear t i =
  match t.store with
  | Flat a -> ( match t.ty with Scalar.Fp32 -> Scalar.F32 a.(i) | _ -> Scalar.F64 a.(i))
  | Boxed a -> a.(i)

let mismatch t v =
  invalid_arg
    (Printf.sprintf "Dense.set: %s value in a %s tensor" (Scalar.value_to_string v)
       (Scalar.ty_to_string t.ty))

let[@inline] set_linear t i v =
  match (t.store, t.ty, v) with
  | Flat a, Scalar.Fp32, Scalar.F32 x | Flat a, Scalar.Fp64, Scalar.F64 x -> a.(i) <- x
  | Flat _, _, _ -> mismatch t v
  | Boxed a, _, _ -> a.(i) <- v

let get t idx = get_linear t (Shape.linearize t.shape idx)
let set t idx v = set_linear t (Shape.linearize t.shape idx) v

let of_fn ty shape f =
  let t = create ty shape in
  Shape.iter shape (fun idx -> set t idx (f idx));
  t

let scalar v =
  let t = create (Scalar.type_of_value v) [||] in
  set_linear t 0 v;
  t

let record_field t name =
  let bad () = invalid_arg ("Dense.record_field: no int32, fp32 or fp64 field " ^ name) in
  match (t.ty, t.store) with
  | Scalar.Record fields, Boxed a ->
    let ty =
      match List.assoc_opt name fields with
      | Some ((Scalar.Int32 | Scalar.Fp32 | Scalar.Fp64) as ty) -> ty
      | _ -> bad ()
    in
    let dst = Array.create_float (Array.length a) in
    for i = 0 to Array.length a - 1 do
      match a.(i) with
      | Scalar.R fs -> (
        (* [List.assoc], not [assoc_opt]: no option allocated per element;
           the field's constructor must be its declared type's *)
        match (ty, List.assoc name fs) with
        | Scalar.Fp32, Scalar.F32 x | Scalar.Fp64, Scalar.F64 x -> dst.(i) <- x
        | Scalar.Int32, Scalar.I32 x -> dst.(i) <- Int32.to_float x
        | _ | (exception Not_found) -> bad ())
      | _ -> bad ()
    done;
    dst
  | _ -> bad ()

let of_float ty x =
  match ty with
  | Scalar.Fp32 -> Scalar.F32 (Scalar.round_f32 x)
  | Scalar.Fp64 -> Scalar.F64 x
  | Scalar.Int32 -> Scalar.I32 (Int32.of_float x)
  | Scalar.Int64 -> Scalar.I64 (Int64.of_float x)
  | Scalar.Bool -> Scalar.B (x <> 0.0)
  | Scalar.Char | Scalar.Record _ ->
    invalid_arg ("Dense.set_record: field of type " ^ Scalar.ty_to_string ty)

let set_record t i fields j =
  match (t.ty, t.store) with
  | Scalar.Record tys, Boxed a ->
    a.(i) <- Scalar.R (List.mapi (fun k (name, ty) -> (name, of_float ty fields.(k).(j))) tys)
  | _ -> invalid_arg "Dense.set_record: not a record tensor"

let copy t =
  match t.store with
  | Flat a -> { t with store = Flat (Array.copy a) }
  | Boxed a -> { t with store = Boxed (Array.copy a) }

let fill t v =
  for i = 0 to num_elements t - 1 do
    set_linear t i v
  done

let iteri t f = Shape.iter t.shape (fun idx -> f idx (get t idx))

let map2 f a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Dense.map2: shape mismatch";
  match (a.store, b.store) with
  | Boxed x, Boxed y -> { a with store = Boxed (Array.map2 f x y) }
  | _ ->
    let out = create a.ty a.shape in
    for i = 0 to num_elements a - 1 do
      set_linear out i (f (get_linear a i) (get_linear b i))
    done;
    out

let for_all2 p a b =
  Shape.equal a.shape b.shape
  &&
  let n = num_elements a in
  let rec go i = i >= n || (p (get_linear a i) (get_linear b i) && go (i + 1)) in
  go 0

let equal a b = for_all2 Scalar.equal a b
let approx_equal ?rel ?abs a b = for_all2 (Scalar.approx_equal ?rel ?abs) a b

let slice t ~dim ~lo ~len =
  let rank = Shape.rank t.shape in
  if dim < 0 || dim >= rank then invalid_arg "Dense.slice: dimension out of range";
  if lo < 0 || len <= 0 || lo + len > t.shape.(dim) then
    invalid_arg "Dense.slice: range out of bounds";
  let out_shape = Shape.concat_extent t.shape ~dim len in
  let out = create t.ty out_shape in
  Shape.iter out_shape (fun idx ->
      let src = Array.copy idx in
      src.(dim) <- idx.(dim) + lo;
      set out idx (get t src));
  out

let concat ~dim a b =
  let rank = Shape.rank a.shape in
  if Shape.rank b.shape <> rank then invalid_arg "Dense.concat: rank mismatch";
  Array.iteri
    (fun d n ->
      if d <> dim && n <> b.shape.(d) then
        invalid_arg "Dense.concat: extents disagree off the concat dimension")
    a.shape;
  let out_shape = Shape.concat_extent a.shape ~dim (a.shape.(dim) + b.shape.(dim)) in
  let out = create a.ty out_shape in
  Shape.iter a.shape (fun idx -> set out idx (get a idx));
  Shape.iter b.shape (fun idx ->
      let dst = Array.copy idx in
      dst.(dim) <- idx.(dim) + a.shape.(dim);
      set out dst (get b idx));
  out

let outer_shape shape dim = Array.of_list (List.filteri (fun d _ -> d <> dim) (Array.to_list shape))

let with_dim idx dim i =
  let rank = Array.length idx + 1 in
  Array.init rank (fun d -> if d < dim then idx.(d) else if d = dim then i else idx.(d - 1))

let scan ~dim f t =
  let out = copy t in
  let outer = outer_shape t.shape dim in
  Shape.iter outer (fun oidx ->
      let acc = ref (get t (with_dim oidx dim 0)) in
      for i = 1 to t.shape.(dim) - 1 do
        acc := f !acc (get t (with_dim oidx dim i));
        set out (with_dim oidx dim i) !acc
      done);
  out

let reduce ~dim f t =
  let out_shape = Shape.concat_extent t.shape ~dim 1 in
  let out = create t.ty out_shape in
  let outer = outer_shape t.shape dim in
  Shape.iter outer (fun oidx ->
      let acc = ref (get t (with_dim oidx dim 0)) in
      for i = 1 to t.shape.(dim) - 1 do
        acc := f !acc (get t (with_dim oidx dim i))
      done;
      set out (with_dim oidx dim 0) !acc);
  out

let pp ppf t =
  Format.fprintf ppf "tensor %s %a [@[" (Shape.to_string t.shape) Scalar.pp_ty t.ty;
  let first = ref true in
  iteri t (fun _ v ->
      if !first then first := false else Format.pp_print_string ppf "; ";
      Scalar.pp_value ppf v);
  Format.fprintf ppf "@]]"
