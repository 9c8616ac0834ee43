module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Index_fn = Mdh_tensor.Index_fn
module Expr = Mdh_expr.Expr
module Typecheck = Mdh_expr.Typecheck
module Analysis = Mdh_expr.Analysis
module Combine = Mdh_combine.Combine

type error_kind =
  | Imperfect_nest
  | Duplicate_loop_var of string
  | Nonpositive_extent of string
  | Combine_op_arity of { dims : int; ops : int }
  | Mixed_reduction_kinds
  | Duplicate_buffer of string
  | Unknown_buffer of string
  | Assign_to_input of string
  | Read_of_output of string
  | Multiple_assignment of string
  | Missing_assignment of string
  | Type_error of string
  | Shape_error of string
  | Opaque_access_needs_shape of string
  | Invalid_out_view of string

type site = Nest | Loop of int | Combine_ops | Buffer of string | Stmt of int

type error = {
  kind : error_kind;
  message : string;
  subject : string option;
  site : site;
}

let pp_error ppf { message; _ } = Format.fprintf ppf "directive error: %s" message
let error_to_string e = Format.asprintf "%a" pp_error e

type eout = {
  eo_name : string;
  eo_ty : Scalar.ty;
  eo_shape : Shape.t;
  eo_indices : Expr.t list;
  eo_fn : Index_fn.t;
  eo_value : Expr.t;
}

type einp = {
  ei_name : string;
  ei_ty : Scalar.ty;
  ei_shape : Shape.t;
  ei_accesses : (Expr.t list * Index_fn.t) list;
}

type elab = {
  el_dims : string array;
  el_sizes : Shape.t;
  el_combine_ops : Combine.t array;
  el_outs : eout list;
  el_inps : einp list;
}

(* Violations accumulate in a sink, newest first. [reject] also returns
   [Error ()], so a check that stops at its first violation can bind it. *)
let record sink ?subject site kind message =
  sink := { kind; message; subject; site } :: !sink

let report sink ?subject site kind fmt =
  Format.kasprintf (record sink ?subject site kind) fmt

let reject sink ?subject site kind fmt =
  Format.kasprintf
    (fun message ->
      record sink ?subject site kind message;
      Error ())
    fmt

let ( let* ) = Result.bind

let rec all_ok f = function
  | [] -> Ok ()
  | x :: rest ->
    let* () = f x in
    all_ok f rest

(* positions and names of the first occurrence of every name that recurs *)
let first_duplicates names =
  let rec go i seen = function
    | [] -> []
    | n :: rest ->
      let dup = (not (List.mem n seen)) && List.mem n rest in
      (if dup then [ (i, n) ] else []) @ go (i + 1) (n :: seen) rest
  in
  go 0 [] names

(* --- pass 1: loop-nest structure (MDH001-MDH005) --- *)

let rec is_perfect = function
  | Directive.For { body; _ } -> is_perfect body
  | Body _ -> true
  | Seq _ -> false

let check_structure sink (dir : Directive.t) ~perfect loops =
  if not perfect then
    report sink Nest Imperfect_nest
      "the loop nest is not perfect: statements or multiple loops at the same level";
  List.iter
    (fun (i, var) ->
      report sink ~subject:var (Loop i) (Duplicate_loop_var var)
        "loop variable %S bound twice" var)
    (first_duplicates (List.map fst loops));
  List.iteri
    (fun i (var, extent) ->
      if extent <= 0 then
        report sink ~subject:var (Loop i) (Nonpositive_extent var)
          "loop %S has non-positive extent %d" var extent)
    loops;
  let dims = List.length loops and ops = List.length dir.combine_ops in
  if perfect && dims <> ops then
    report sink Combine_ops (Combine_op_arity { dims; ops })
      "combine_ops has %d entries but the loop nest has depth %d" ops dims;
  let has pred = List.exists pred dir.combine_ops in
  if
    has (function Combine.Pw _ -> true | _ -> false)
    && has (function Combine.Ps _ -> true | _ -> false)
  then
    report sink Combine_ops Mixed_reduction_kinds
      "pw and ps combine operators cannot be mixed in one computation: their \
       nesting does not satisfy the interchange law the MDH decomposition relies \
       on"

(* --- pass 2: buffer declarations (MDH006) --- *)

let check_decls sink (dir : Directive.t) =
  List.iter
    (fun (_, name) ->
      report sink ~subject:name (Buffer name) (Duplicate_buffer name)
        "buffer %S declared twice" name)
    (first_duplicates
       (List.map (fun (d : Directive.buffer_decl) -> d.buf_name) (dir.outs @ dir.inps)))

(* --- pass 3: body discipline and typing (MDH007-MDH012) --- *)

let fold_lets lets value =
  List.fold_right (fun (name, e) acc -> Expr.Let (name, e, acc)) lets value

(* Wrap an expression in the preceding lets only when it actually uses one of
   the bound names; index expressions that do not depend on local bindings
   stay raw, keeping them amenable to affine extraction. *)
let fold_lets_if_needed lets value =
  if List.exists (fun (name, _) -> Analysis.uses_var name value) lets then
    fold_lets lets value
  else value

let find_decl decls name =
  List.find_opt (fun (d : Directive.buffer_decl) -> String.equal d.buf_name name) decls

(* the first buffer [e] reads that is an output or undeclared *)
let bad_read (dir : Directive.t) e =
  let bad = ref None in
  Expr.iter_reads e (fun buf _ ->
      if !bad = None && (find_decl dir.outs buf <> None || find_decl dir.inps buf = None)
      then bad := Some buf);
  !bad

(* Statement by statement: within a statement the first failing check wins,
   but the walk goes on with the next one. Returns every assignment to a
   declared output, with the preceding lets folded into its indices and
   value — recorded even when a later check fails, so one broken assignment
   does not cascade into MDH010/MDH011 noise. *)
let check_body sink (dir : Directive.t) loops stmts =
  let env =
    { Typecheck.iter_vars = List.map fst loops;
      buffer_ty =
        (fun name ->
          Option.map (fun (d : Directive.buffer_decl) -> d.buf_ty) (find_decl dir.inps name)) }
  in
  let assigned_to target =
    List.exists (fun ((d : Directive.buffer_decl), _, _) -> String.equal d.buf_name target)
  in
  let walk (i, lets, assigned) stmt =
    let reject ?subject kind fmt = reject sink ?subject (Stmt i) kind fmt in
    let check_reads e =
      match bad_read dir e with
      | None -> Ok ()
      | Some buf when find_decl dir.outs buf <> None ->
        reject ~subject:buf (Read_of_output buf)
          "output buffer %S is read in the body: the scalar function must be \
           reduction-free (use `=`, not `+=`; reductions are expressed by combine_ops)"
          buf
      | Some buf -> reject ~subject:buf (Unknown_buffer buf) "read of undeclared buffer %S" buf
    in
    let typecheck e =
      match Typecheck.infer env e with
      | Ok ty -> Ok ty
      | Error err ->
        let msg = Format.asprintf "%a" Typecheck.pp_error err in
        reject (Type_error msg) "%s" msg
    in
    (* a failed check has already recorded its violation: [ignore] drops
       only the [Error ()] that stopped this statement *)
    match stmt with
    | Directive.Let_stmt (name, e) ->
      ignore
        (let wrapped = fold_lets lets e in
         let* () = check_reads wrapped in
         typecheck wrapped);
      (i + 1, lets @ [ (name, e) ], assigned)
    | Assign { target; indices; value } ->
      let decl = find_decl dir.outs target in
      let value = fold_lets_if_needed lets value in
      let indices = List.map (fold_lets_if_needed lets) indices in
      ignore
        (let* (decl : Directive.buffer_decl) =
           match decl with
           | Some d -> Ok d
           | None when find_decl dir.inps target <> None ->
             reject ~subject:target (Assign_to_input target)
               "assignment to input buffer %S" target
           | None ->
             reject ~subject:target (Unknown_buffer target)
               "assignment to undeclared buffer %S" target
         in
         let* () =
           if assigned_to target assigned then
             reject ~subject:target (Multiple_assignment target)
               "output buffer %S assigned more than once per iteration point" target
           else Ok ()
         in
         let* () = check_reads value in
         let* () = all_ok check_reads indices in
         let* vty = typecheck value in
         let* () =
           if Scalar.equal_ty vty decl.buf_ty then Ok ()
           else
             reject ~subject:target
               (Type_error (Printf.sprintf "assignment to %S: value type mismatch" target))
               "assignment to %S has type %s, buffer has type %s" target
               (Scalar.ty_to_string vty) (Scalar.ty_to_string decl.buf_ty)
         in
         all_ok
           (fun ie ->
             let* ity = typecheck ie in
             match ity with
             | Scalar.Int32 | Int64 -> Ok ()
             | _ ->
               reject ~subject:target (Type_error "non-integral index")
                 "index expression `%s` of %S has non-integral type %s"
                 (Expr.to_string ie) target (Scalar.ty_to_string ity))
           indices);
      let assigned =
        match decl with Some d -> assigned @ [ (d, indices, value) ] | None -> assigned
      in
      (i + 1, lets, assigned)
  in
  let _, _, assigned = List.fold_left walk (0, [], []) stmts in
  List.iter
    (fun (d : Directive.buffer_decl) ->
      if not (assigned_to d.buf_name assigned) then
        report sink ~subject:d.buf_name (Buffer d.buf_name) (Missing_assignment d.buf_name)
          "output buffer %S is never assigned" d.buf_name)
    dir.outs;
  assigned

(* --- pass 4: shape inference (footnote 7) and the out-view discipline
   (MDH013-MDH015) --- *)

let infer_shape sink ~what ~name ~declared ~sizes accesses =
  (* [accesses]: (index exprs, index fn) pairs for one buffer *)
  let reject kind fmt = reject sink ~subject:name (Buffer name) kind fmt in
  let opaque = List.exists (fun (_, fn) -> not (Index_fn.is_affine fn)) accesses in
  if opaque then
    match declared with
    | Some shape -> Ok shape
    | None ->
      reject (Opaque_access_needs_shape name)
        "%s buffer %S has a non-affine access; its size cannot be inferred and must be \
         declared"
        what name
  else
    match List.map (fun (_, fn) -> Index_fn.out_rank fn) accesses with
    | [] -> (
      match declared with
      | Some shape -> Ok shape
      | None -> reject (Shape_error name) "%s buffer %S is never accessed" what name)
    | r0 :: rest when List.for_all (( = ) r0) rest ->
      let mins = List.map (fun (_, fn) -> Index_fn.min_index fn sizes) accesses in
      let maxs = List.map (fun (_, fn) -> Index_fn.max_index fn sizes) accesses in
      if List.exists (Array.exists (fun x -> x < 0)) mins then
        reject (Shape_error name) "%s buffer %S is accessed at negative indices" what name
      else begin
        let inferred = Array.make r0 0 in
        List.iter
          (Array.iteri (fun d m -> if m + 1 > inferred.(d) then inferred.(d) <- m + 1))
          maxs;
        match declared with
        | None -> Ok inferred
        | Some shape ->
          if Array.length shape <> r0 then
            reject (Shape_error name)
              "%s buffer %S declared with rank %d but accessed with rank %d" what name
              (Array.length shape) r0
          else if Array.exists2 (fun s i -> s < i) shape inferred then
            reject (Shape_error name) "%s buffer %S declared as %s but accesses reach %s"
              what name (Shape.to_string shape) (Shape.to_string inferred)
          else Ok shape
      end
    | _ -> reject (Shape_error name) "%s buffer %S accessed with inconsistent ranks" what name

let iter_points shape ~cap f =
  (* visit up to [cap] points of [shape] in row-major order *)
  let rank = Array.length shape in
  let idx = Array.make rank 0 in
  let n = min (Array.fold_left ( * ) 1 shape) cap in
  let rec bump d =
    if d >= 0 then begin
      idx.(d) <- idx.(d) + 1;
      if idx.(d) >= shape.(d) then begin
        idx.(d) <- 0;
        bump (d - 1)
      end
    end
  in
  for _ = 1 to n do
    f (Array.copy idx);
    bump (rank - 1)
  done

let collision_witness fn subspace =
  let seen = Hashtbl.create 256 in
  let witness = ref None in
  iter_points subspace ~cap:4096 (fun pt ->
      if !witness = None then begin
        let image = Index_fn.apply fn pt in
        match Hashtbl.find_opt seen image with
        | Some prev -> witness := Some (prev, pt, image)
        | None -> Hashtbl.add seen image pt
      end);
  !witness

let string_of_point dims pt =
  String.concat ", "
    (Array.to_list (Array.mapi (fun d v -> Printf.sprintf "%s=%d" dims.(d) v) pt))

(* Every dimension that breaks the discipline is reported; an access that is
   not injective comes with a concrete pair of colliding iteration points. *)
let check_out_view sink ~dims ~sizes ~combine_ops name fn =
  let report fmt = report sink ~subject:name (Buffer name) (Invalid_out_view name) fmt in
  match fn with
  | Index_fn.Opaque _ -> report "output access of %S must be affine" name
  | Index_fn.Affine _ -> (
    let breaking =
      List.filter
        (fun d -> Combine.collapses combine_ops.(d) && Index_fn.uses_dim fn d = Some true)
        (List.init (Array.length sizes) Fun.id)
    in
    List.iter
      (fun d ->
        report
          "output access of %S depends on dimension %d (loop %S), which is collapsed by \
           %s: the dimension's partial results all target the same cells"
          name d dims.(d) (Combine.name combine_ops.(d)))
      breaking;
    if breaking = [] then
      let subspace =
        Array.mapi (fun d n -> if Combine.collapses combine_ops.(d) then 1 else n) sizes
      in
      match Index_fn.injective_on fn subspace with
      | Some true -> ()
      | Some false -> (
        match collision_witness fn subspace with
        | Some (p1, p2, image) ->
          (* name the first dimension on which the colliding points differ *)
          let d =
            let rec first i = if p1.(i) <> p2.(i) then i else first (i + 1) in
            first 0
          in
          report
            "output access of %S is not injective on the non-collapsed subspace: \
             iteration points (%s) and (%s) — first differing in dimension %d (loop \
             %S) — both write %s[%s]"
            name (string_of_point dims p1) (string_of_point dims p2) d dims.(d) name
            (String.concat ", " (Array.to_list (Array.map string_of_int image)))
        | None ->
          report
            "output access of %S is not injective on the non-collapsed subspace: \
             combined results would overwrite each other"
            name)
      | None -> report "could not prove injectivity of output access of %S" name)

(* --- top level --- *)

let elaborate (dir : Directive.t) =
  let sink = ref [] in
  let loops = Directive.loops dir in
  let perfect = is_perfect dir.nest in
  check_structure sink dir ~perfect loops;
  check_decls sink dir;
  let assigned = if perfect then check_body sink dir loops (Directive.stmts dir) else [] in
  match !sink with
  | _ :: _ -> Error (List.rev !sink)
  | [] -> (
    (* shapes and out-views are only meaningful on an otherwise clean directive *)
    let dims = Array.of_list (List.map fst loops) in
    let sizes = Array.of_list (List.map snd loops) in
    let combine_ops = Array.of_list dir.combine_ops in
    let outs =
      List.filter_map
        (fun ((decl : Directive.buffer_decl), indices, value) ->
          let name = decl.buf_name in
          let fn = Analysis.index_fn_of_exprs ~dims indices in
          match
            infer_shape sink ~what:"output" ~name ~declared:decl.buf_shape ~sizes
              [ (indices, fn) ]
          with
          | Error () -> None
          | Ok shape ->
            check_out_view sink ~dims ~sizes ~combine_ops name fn;
            Some { eo_name = name; eo_ty = decl.buf_ty; eo_shape = shape;
                   eo_indices = indices; eo_fn = fn; eo_value = value })
        assigned
    in
    (* inputs: distinct textual accesses over all assigned values *)
    let inps =
      List.filter_map
        (fun (decl : Directive.buffer_decl) ->
          let name = decl.buf_name in
          let accesses = ref [] in
          List.iter
            (fun (_, _, value) ->
              Expr.iter_reads value (fun buf idxs ->
                  if String.equal buf name && not (List.mem idxs !accesses) then
                    accesses := idxs :: !accesses))
            assigned;
          let accesses =
            List.rev_map (fun idxs -> (idxs, Analysis.index_fn_of_exprs ~dims idxs))
              !accesses
          in
          match
            infer_shape sink ~what:"input" ~name ~declared:decl.buf_shape ~sizes accesses
          with
          | Error () -> None
          | Ok shape ->
            Some { ei_name = name; ei_ty = decl.buf_ty; ei_shape = shape;
                   ei_accesses = accesses })
        dir.inps
    in
    match List.rev !sink with
    | [] ->
      Ok { el_dims = dims; el_sizes = sizes; el_combine_ops = combine_ops;
           el_outs = outs; el_inps = inps }
    | errors -> Error errors)

let run dir = Result.map ignore (elaborate dir) |> Result.map_error List.hd

(* Stable diagnostic codes, shared with Mdh_analysis.Diagnostic.code_table —
   both sides are pinned by tests, so a mismatch fails the suite. *)
let error_code = function
  | Imperfect_nest -> "MDH001"
  | Duplicate_loop_var _ -> "MDH002"
  | Nonpositive_extent _ -> "MDH003"
  | Combine_op_arity _ -> "MDH004"
  | Mixed_reduction_kinds -> "MDH005"
  | Duplicate_buffer _ -> "MDH006"
  | Unknown_buffer _ -> "MDH007"
  | Assign_to_input _ -> "MDH008"
  | Read_of_output _ -> "MDH009"
  | Multiple_assignment _ -> "MDH010"
  | Missing_assignment _ -> "MDH011"
  | Type_error _ -> "MDH012"
  | Shape_error _ -> "MDH013"
  | Opaque_access_needs_shape _ -> "MDH014"
  | Invalid_out_view _ -> "MDH015"
