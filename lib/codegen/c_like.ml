module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Md_hom = Mdh_core.Md_hom
module Expr = Mdh_expr.Expr
module Typecheck = Mdh_expr.Typecheck
module Combine = Mdh_combine.Combine

type ctx = {
  records : Scalar.ty list;  (** distinct record types, registration order *)
  buffer_shapes : (string * Shape.t) list;
  tc_env : Typecheck.env;
}

let record_name ctx ty =
  let rec index i = function
    | [] -> invalid_arg "C_like: unregistered record type"
    | t :: rest -> if Scalar.equal_ty t ty then i else index (i + 1) rest
  in
  Printf.sprintf "mdh_rec_%d" (index 0 ctx.records)

let c_type ctx = function
  | Scalar.Fp32 -> "float"
  | Fp64 -> "double"
  | Int32 -> "int"
  | Int64 -> "long long"
  | Bool -> "unsigned char"
  | Char -> "char"
  | Record _ as ty -> "struct " ^ record_name ctx ty

let prepare (md : Md_hom.t) =
  let records = ref [] in
  let rec note ty =
    match ty with
    | Scalar.Record fields ->
      List.iter (fun (_, fty) -> note fty) fields;
      if not (List.exists (Scalar.equal_ty ty) !records) then records := !records @ [ ty ]
    | _ -> ()
  in
  List.iter (fun (i : Md_hom.input) -> note i.inp_ty) md.inputs;
  List.iter (fun (o : Md_hom.output) -> note o.out_ty) md.outputs;
  let buffer_shapes =
    List.map (fun (i : Md_hom.input) -> (i.Md_hom.inp_name, i.Md_hom.inp_shape)) md.inputs
    @ List.map (fun (o : Md_hom.output) -> (o.Md_hom.out_name, o.Md_hom.out_shape)) md.outputs
  in
  let tc_env =
    { Typecheck.iter_vars = Array.to_list md.dims;
      buffer_ty =
        (fun name ->
          match Md_hom.find_input md name with
          | Some i -> Some i.Md_hom.inp_ty
          | None -> None) }
  in
  { records = !records; buffer_shapes; tc_env }

let struct_defs ctx =
  String.concat ""
    (List.map
       (fun ty ->
         match ty with
         | Scalar.Record fields ->
           Printf.sprintf "struct %s {\n%s};\n\n" (record_name ctx ty)
             (String.concat ""
                (List.map
                   (fun (fname, fty) -> Printf.sprintf "  %s %s;\n" (c_type ctx fty) fname)
                   fields))
         | _ -> assert false)
       ctx.records)

type emitted = {
  decls : string list;
  expr : string;
}

let linearize name shape idx_strings =
  if Array.length shape <> List.length idx_strings then
    invalid_arg "C_like.linearize: rank mismatch";
  if Array.length shape = 0 || idx_strings = [] then name ^ "[0]"
  else begin
    let acc = ref "" in
    List.iteri
      (fun d idx ->
        acc :=
          if d = 0 then Printf.sprintf "(%s)" idx
          else Printf.sprintf "(%s) * %d + (%s)" !acc shape.(d) idx)
      idx_strings;
    Printf.sprintf "%s[%s]" name !acc
  end

let float_lit x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.9g" x

let rec const_lit ctx ty v =
  match v with
  | Scalar.F32 x -> float_lit x ^ "f"
  | F64 x -> float_lit x
  | I32 x -> Int32.to_string x
  | I64 x -> Int64.to_string x ^ "LL"
  | B b -> if b then "1" else "0"
  | C c -> string_of_int (Char.code c)
  | R fields ->
    let ftys = match ty with Scalar.Record ftys -> ftys | _ -> [] in
    Printf.sprintf "(%s){%s}" (c_type ctx ty)
      (String.concat ", "
         (List.map
            (fun (name, fv) ->
              let fty =
                match List.assoc_opt name ftys with
                | Some t -> t
                | None -> Scalar.type_of_value fv
              in
              const_lit ctx fty fv)
            fields))

(* infer the C type of a subexpression, given the types of let-bound
   locals *)
let type_of ctx locals e =
  let wrapped =
    List.fold_right
      (fun (name, (_, ty)) acc ->
        (* re-introduce locals as lets over zero values of the right type *)
        Expr.Let (name, Expr.Const (Scalar.zero ty), acc))
      locals e
  in
  match Typecheck.infer ctx.tc_env wrapped with
  | Ok ty -> ty
  | Error err ->
    invalid_arg
      (Format.asprintf "C_like.emit_expr: expression does not type-check: %a"
         Typecheck.pp_error err)

let emit_expr ctx ~fresh ~index_of root =
  let root = Mdh_rewrite.Rewrite.simplify_expr root in
  let decls = ref [] in
  let rec go locals e =
    match e with
    | Expr.Const v -> const_lit ctx (Scalar.type_of_value v) v
    | Idx name -> index_of name
    | Var name -> (
      match List.assoc_opt name locals with
      | Some (cname, _) -> cname
      | None -> invalid_arg (Printf.sprintf "C_like.emit_expr: unbound local %S" name))
    | Read (buf, idxs) -> (
      let idx_strings = List.map (go locals) idxs in
      match List.assoc_opt buf ctx.buffer_shapes with
      | Some shape -> linearize buf shape idx_strings
      | None -> invalid_arg (Printf.sprintf "C_like.emit_expr: unknown buffer %S" buf))
    | Binop (op, a, b) ->
      let ca = go locals a and cb = go locals b in
      let infix sym = Printf.sprintf "(%s %s %s)" ca sym cb in
      (match op with
      | Expr.Add -> infix "+"
      | Sub -> infix "-"
      | Mul -> infix "*"
      | Div -> infix "/"
      | Min -> Printf.sprintf "mdh_min(%s, %s)" ca cb
      | Max -> Printf.sprintf "mdh_max(%s, %s)" ca cb
      | Eq -> infix "=="
      | Ne -> infix "!="
      | Lt -> infix "<"
      | Le -> infix "<="
      | Gt -> infix ">"
      | Ge -> infix ">="
      | And -> infix "&&"
      | Or -> infix "||")
    | Unop (Expr.Neg, a) -> Printf.sprintf "(-%s)" (go locals a)
    | Unop (Expr.Not, a) -> Printf.sprintf "(!%s)" (go locals a)
    | If (c, t, f) ->
      Printf.sprintf "(%s ? %s : %s)" (go locals c) (go locals t) (go locals f)
    | Let (name, value, body) ->
      let cname = fresh () in
      let vty = type_of ctx locals value in
      let cexpr = go locals value in
      decls :=
        Printf.sprintf "const %s %s = %s;" (c_type ctx vty) cname cexpr :: !decls;
      go ((name, (cname, vty)) :: locals) body
    | Field (a, fname) -> Printf.sprintf "%s.%s" (go locals a) fname
    | MkRecord fields ->
      let ty = type_of ctx locals e in
      Printf.sprintf "(%s){%s}" (c_type ctx ty)
        (String.concat ", " (List.map (fun (_, fe) -> go locals fe) fields))
    | Cast (ty, a) -> Printf.sprintf "((%s)%s)" (c_type ctx ty) (go locals a)
  in
  let expr = go [] root in
  { decls = List.rev !decls; expr }

let combine_exprs (fn : Combine.custom_fn) a b =
  if fn.Combine.builtin then
    match fn.Combine.fn_name with
    | "add" -> Printf.sprintf "(%s + %s)" a b
    | "mul" -> Printf.sprintf "(%s * %s)" a b
    | "min" -> Printf.sprintf "mdh_min(%s, %s)" a b
    | "max" -> Printf.sprintf "mdh_max(%s, %s)" a b
    | other -> invalid_arg ("C_like.combine_exprs: unknown builtin " ^ other)
  else Printf.sprintf "mdh_combine_%s(%s, %s)" fn.Combine.fn_name a b

let custom_combiner_note (fn : Combine.custom_fn) =
  if fn.Combine.builtin then None
  else
    Some
      (Printf.sprintf
         "/* mdh_combine_%s: user-defined customising function, supplied by the host \
          (associative%s) */"
         fn.Combine.fn_name
         (if fn.Combine.commutative then ", commutative" else ""))

let min_max_prelude =
  "#define mdh_min(a, b) ((a) < (b) ? (a) : (b))\n\
   #define mdh_max(a, b) ((a) > (b) ? (a) : (b))\n"

let buffer_param ctx ?(const = true) name ty =
  Printf.sprintf "%s%s *%s" (if const then "const " else "") (c_type ctx ty) name

let indent n text =
  let pad = String.make (2 * n) ' ' in
  String.split_on_char '\n' text
  |> List.map (fun line -> if line = "" then line else pad ^ line)
  |> String.concat "\n"
