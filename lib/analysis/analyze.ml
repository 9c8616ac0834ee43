module Index_fn = Mdh_tensor.Index_fn
module Ea = Mdh_expr.Analysis
module Combine = Mdh_combine.Combine
module D = Mdh_directive.Directive
module Validate = Mdh_directive.Validate
module Schedule = Mdh_lowering.Schedule
module Device = Mdh_machine.Device
module Parser = Mdh_pragma.Parser
module Token = Mdh_pragma.Token
module Lexer = Mdh_pragma.Lexer
module Metrics = Mdh_obs.Metrics
module Diag = Diagnostic

let c_directives = Metrics.counter "analysis.check.directives"

(* --- span lookup ------------------------------------------------------- *)

let span_of_pos { Token.line; col } = { Diag.line; col }

type span_env = {
  loop_span : int -> Diag.span option;
  buffer_span : string -> Diag.span option;
  op_span : int -> Diag.span option;
  stmt_span : int -> Diag.span option;
  pragma_span : Diag.span option;
}

let no_spans =
  { loop_span = (fun _ -> None);
    buffer_span = (fun _ -> None);
    op_span = (fun _ -> None);
    stmt_span = (fun _ -> None);
    pragma_span = None }

let span_env_of (s : Parser.spans) =
  { loop_span =
      (fun i ->
        Option.map (fun (_, pos) -> span_of_pos pos) (List.nth_opt s.Parser.loop_pos i));
    buffer_span =
      (fun b -> Option.map span_of_pos (List.assoc_opt b s.Parser.buffer_pos));
    op_span =
      (fun i -> Option.map span_of_pos (List.nth_opt s.Parser.combine_op_pos i));
    stmt_span =
      (fun i -> Option.map span_of_pos (List.nth_opt s.Parser.stmt_pos i));
    pragma_span = Some (span_of_pos s.Parser.pragma_pos) }

(* --- pass 5: combine-operator property verification (MDH020-023, 112) -- *)

let opcheck_pass b sp (elab : Validate.elab) =
  let elem_ty =
    match elab.Validate.el_outs with
    | { Validate.eo_ty; _ } :: _ -> Some eo_ty
    | [] -> None
  in
  match elem_ty with
  | None -> ()
  | Some ty ->
    let seen = ref [] in
    Array.iteri
      (fun d op ->
        match Combine.custom_fn_of op with
        | None -> ()
        | Some fn when List.mem fn.Combine.fn_name !seen -> ()
        | Some fn -> (
          seen := fn.Combine.fn_name :: !seen;
          let report = Opcheck.verify ~ty fn in
          let span = sp.op_span d in
          List.iter
            (fun (property, witness) ->
              let code =
                match property with
                | "associativity" -> "MDH020"
                | "commutativity" -> "MDH021"
                | _ -> "MDH022"
              in
              Diag.emit b ?span ~subject:fn.Combine.fn_name Diag.Error code
                "combine operator %S declares %s but the verifier falsified \
                 it: %s"
                fn.Combine.fn_name property witness)
            (Opcheck.violations fn report);
          (match report.Opcheck.associativity with
          | Opcheck.Untestable msg ->
            Diag.emit b ?span ~subject:fn.Combine.fn_name Diag.Warning "MDH023"
              "combine operator %S could not be verified: %s" fn.Combine.fn_name
              msg
          | _ -> ());
          List.iter
            (fun property ->
              Diag.emit b ?span ~subject:fn.Combine.fn_name Diag.Hint "MDH112"
                "combine operator %S holds %s on every sample but does not \
                 declare it; declaring it unlocks parallelisation"
                fn.Combine.fn_name property)
            (Opcheck.unexploited fn report)))
      elab.Validate.el_combine_ops

(* --- pass 6: semantic lints (MDH101-103, MDH110-111) -------------------- *)

let lint_pass b sp (elab : Validate.elab) =
  let dims = elab.Validate.el_dims in
  let rank = Array.length dims in
  List.iter
    (fun (inp : Validate.einp) ->
      if inp.Validate.ei_accesses = [] then
        Diag.emit b
          ?span:(sp.buffer_span inp.Validate.ei_name)
          ~subject:inp.Validate.ei_name Diag.Warning "MDH101"
          "input buffer %S is never read by the body" inp.Validate.ei_name)
    elab.Validate.el_inps;
  let blocked = Schedule.unparallelisable elab.Validate.el_combine_ops in
  List.iter
    (fun (d, msg) ->
      Diag.emit b ?span:(sp.op_span d) ~subject:dims.(d) Diag.Warning "MDH102"
        "no schedule may parallelise loop %S: %s" dims.(d) msg)
    blocked;
  if rank > 0 && List.length blocked = rank then
    Diag.emit b ?span:(sp.op_span 0) Diag.Warning "MDH103"
      "no dimension of the computation is parallelisable: every combine \
       operator is a reduction with a non-associative customising function";
  Array.iteri
    (fun d var ->
      if elab.Validate.el_sizes.(d) = 1 then
        Diag.emit b ?span:(sp.loop_span d) ~subject:var Diag.Hint "MDH110"
          "loop %S has extent 1: the dimension is degenerate and could be \
           dropped from the nest"
          var)
    dims;
  (* locality: the innermost loop should drive the last (stride-1) buffer
     coordinate; an access that uses it only in an earlier coordinate walks
     the buffer with a large stride *)
  if rank > 0 then begin
    let innermost = rank - 1 in
    let strided fn =
      match fn with
      | Index_fn.Opaque _ -> false
      | Index_fn.Affine { coords; _ } ->
        let n = Array.length coords in
        n > 0
        && coords.(n - 1).Index_fn.coeffs.(innermost) = 0
        && Array.exists
             (fun (c : Index_fn.coord) -> c.Index_fn.coeffs.(innermost) <> 0)
             (Array.sub coords 0 (n - 1))
    in
    let hint name fn =
      if strided fn then
        Diag.emit b ?span:(sp.buffer_span name) ~subject:name Diag.Hint "MDH111"
          "access of %S uses the innermost loop %S only in a non-last \
           coordinate: consecutive iterations stride across the buffer; \
           consider interchanging loops so %S drives the stride-1 coordinate"
          name dims.(innermost) dims.(innermost)
    in
    List.iter (fun (o : Validate.eout) -> hint o.Validate.eo_name o.Validate.eo_fn)
      elab.Validate.el_outs;
    List.iter
      (fun (inp : Validate.einp) ->
        match
          List.find_opt (fun (_, fn) -> strided fn) inp.Validate.ei_accesses
        with
        | Some (_, fn) -> hint inp.Validate.ei_name fn
        | None -> ())
      elab.Validate.el_inps
  end

(* --- pass 7: plan-level lints (MDH113) ---------------------------------- *)

(* The PRL-study diagnosis (paper Section 5.2), read off the shared plan
   IR: when only the concatenation dimensions are parallelised — all an
   OpenMP-style [parallel for] annotation expresses — a reduction-heavy
   computation leaves most of a device idle. Compare the cc-only plan's
   parallelism with the plan the lowering actually picks on each modelled
   device; a large gap means reduction parallelisation carries the
   workload. *)
let plan_pass b sp (md : Mdh_core.Md_hom.t) =
  let hint_for dev =
    let full = Mdh_lowering.Lower.mdh_default md dev in
    let cc_only =
      { full with
        Schedule.parallel_dims =
          List.filter
            (fun d -> not (Combine.is_reduction md.Mdh_core.Md_hom.combine_ops.(d)))
            full.Schedule.parallel_dims }
    in
    match
      ( Mdh_lowering.Plan.build md dev full,
        Mdh_lowering.Plan.build md dev cc_only )
    with
    | Ok fp, Ok cp ->
      let fpar = Mdh_lowering.Plan.parallelism fp in
      let cpar = Mdh_lowering.Plan.parallelism cp in
      if fpar >= 4 * max 1 cpar then
        Option.map
          (fun (td, _, _) -> (dev, td, fpar, cpar))
          (Mdh_lowering.Plan.tree fp)
      else None
    | _ -> None
  in
  match List.find_map hint_for [ Device.xeon6140_like; Device.a100_like ] with
  | Some (dev, td, fpar, cpar) ->
    let dims = md.Mdh_core.Md_hom.dims in
    Diag.emit b ?span:(sp.op_span td) ~subject:dims.(td) Diag.Hint "MDH113"
      "parallelising only the concatenation dimensions achieves %d-way \
       parallelism on %s, but the plan reaches %d-way by tree-reducing \
       loop %S: a directive-level [parallel for] annotation would leave \
       the device underused"
      cpar dev.Device.device_name fpar dims.(td)
  | None -> ()

(* --- pass 8: verified-rewrite hints (MDH120-121) -------------------------

   Read-only preview of what `mdhc optimize` would do: run the expression
   tier on each output body and the plan tier on the default plan of each
   modelled device, and report where a justified rewrite fires. The pass
   never changes the directive — it tells the author the optimizer has
   something to offer. *)

let rewrite_rules applied =
  (* distinct rule ids in application order *)
  List.fold_left
    (fun acc (a : Mdh_rewrite.Rewrite.applied) ->
      if List.mem a.Mdh_rewrite.Rewrite.ap_rule acc then acc
      else acc @ [ a.Mdh_rewrite.Rewrite.ap_rule ])
    [] applied

let rewrite_pass b sp ~verify_ops (md : Mdh_core.Md_hom.t) =
  let module Rw = Mdh_rewrite.Rewrite in
  let module Md_hom = Mdh_core.Md_hom in
  List.iter
    (fun (o : Md_hom.output) ->
      let value', applied = Rw.saturate_expr ~site:o.Md_hom.out_name o.Md_hom.value in
      if applied <> [] then
        Diag.emit b
          ?span:(sp.buffer_span o.Md_hom.out_name)
          ~subject:o.Md_hom.out_name Diag.Hint "MDH120"
          "the body of %S admits %d verified rewrite%s (%s) reducing its \
           modelled flops from %d to %d: `mdhc optimize` applies them"
          o.Md_hom.out_name (List.length applied)
          (if List.length applied = 1 then "" else "s")
          (String.concat ", " (rewrite_rules applied))
          (Ea.flops o.Md_hom.value) (Ea.flops value'))
    md.Md_hom.outputs;
  let oracle =
    if verify_ops then Opcheck_oracle.oracle () else Rw.pure_oracle
  in
  let hint_for dev =
    let sched = Mdh_lowering.Lower.mdh_default md dev in
    match Mdh_lowering.Plan.build md dev sched with
    | Error _ -> None
    | Ok plan -> (
      match Rw.saturate_plan ~oracle md dev Mdh_lowering.Cost.tuned_codegen plan with
      | _, [] -> None
      | _, applied -> Some (dev, applied))
  in
  match List.find_map hint_for [ Device.xeon6140_like; Device.a100_like ] with
  | Some (dev, applied) ->
    Diag.emit b ?span:sp.pragma_span Diag.Hint "MDH121"
      "the default plan for %s admits %d structural rewrite%s (%s): `mdhc \
       optimize` applies them and reports the cost-model delta"
      dev.Device.device_name (List.length applied)
      (if List.length applied = 1 then "" else "s")
      (String.concat ", " (rewrite_rules applied))
  | None -> ()

(* --- driver ------------------------------------------------------------- *)

let span_of_site sp = function
  | Validate.Nest -> sp.pragma_span
  | Loop i -> sp.loop_span i
  | Combine_ops -> sp.op_span 0
  | Buffer name -> sp.buffer_span name
  | Stmt i -> sp.stmt_span i

let directive ?spans ?(verify_ops = true) (dir : D.t) =
  Metrics.incr c_directives;
  let sp = match spans with Some s -> span_env_of s | None -> no_spans in
  let b = Diag.create () in
  (match Validate.elaborate dir with
  | Error errors ->
    List.iter
      (fun (e : Validate.error) ->
        Diag.emit b ?span:(span_of_site sp e.site) ?subject:e.subject Diag.Error
          (Validate.error_code e.kind) "%s" e.message)
      errors
  | Ok elab ->
    let md = Mdh_directive.Transform.of_elab ~name:dir.D.dir_name elab in
    if verify_ops then opcheck_pass b sp elab;
    lint_pass b sp elab;
    plan_pass b sp md;
    rewrite_pass b sp ~verify_ops md);
  Diag.contents b

let pragma ?name ?(params = []) ?verify_ops src =
  match Lexer.tokenize src with
  | Error { Lexer.pos; message } ->
    let b = Diag.create () in
    Diag.emit b ~span:(span_of_pos pos) Diag.Error "MDH017" "%s" message;
    Diag.contents b
  | Ok _ -> (
    match Parser.parse_with_spans ?name ~params src with
    | Error { Parser.pos; message } ->
      let b = Diag.create () in
      Diag.emit b ~span:(span_of_pos pos) Diag.Error "MDH016" "%s" message;
      Diag.contents b
    | Ok (dir, spans) -> directive ~spans ?verify_ops dir)
