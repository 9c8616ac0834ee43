(* Tests for the Mdh_analysis static analyzer: diagnostic accumulation and
   ordering, error-code stability, SARIF well-formedness, the combine-operator
   property verifier, and the semantic lints. *)

module Scalar = Mdh_tensor.Scalar
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module D = Mdh_directive.Directive
module Validate = Mdh_directive.Validate
module W = Mdh_workloads.Workload
module Diag = Mdh_analysis.Diagnostic
module Opcheck = Mdh_analysis.Opcheck
module Analyze = Mdh_analysis.Analyze

let check = Alcotest.check

let codes ds = List.map (fun d -> d.Diag.code) ds

let errors ds = List.filter (fun d -> d.Diag.severity = Diag.Error) ds

(* --- the broken pragma fixture: several errors in one invocation --- *)

let broken_src =
  {|#pragma mdh out(w : fp32) inp(M : fp32, v : fp32) combine_ops(cc, pw(add), pw(mul))
for (i = 0; i < 4; i++)
  for (i = 0; i < 0; i++)
    w[i] = M[i, i] * v[i];
|}

let test_accumulation_ordering () =
  let ds = Analyze.pragma broken_src in
  check (Alcotest.list Alcotest.string) "codes in pass order"
    [ "MDH002"; "MDH003"; "MDH004" ] (codes (errors ds));
  check Alcotest.bool "at least two distinct codes" true
    (List.length (List.sort_uniq compare (codes (errors ds))) >= 2);
  List.iter
    (fun d ->
      check Alcotest.bool
        (Printf.sprintf "%s has a span" d.Diag.code)
        true (d.Diag.span <> None))
    (errors ds);
  (* both loops bind "i": MDH002 points at the first occurrence, MDH003 at
     the zero-extent loop itself *)
  check
    (Alcotest.list (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int)))
    "spans" [ Some (2, 1); Some (3, 3); Some (1, 63) ]
    (List.map
       (fun d -> Option.map (fun { Diag.line; col } -> (line, col)) d.Diag.span)
       (errors ds))

let test_first_error_matches_validate () =
  (* the analyzer's first error-severity code must agree with the fail-fast
     validator on the same directive *)
  let cases =
    [ (* imperfect nest *)
      D.make ~name:"imperfect" ~out:[ D.buffer "w" Scalar.Fp64 ] ~inp:[]
        ~combine_ops:[ Combine.cc ]
        (D.Seq
           [ D.for_ "i" 2 (D.body [ D.assign "w" [ Expr.idx "i" ] (Expr.f64 1.0) ]);
             D.body [ D.assign "w" [ Expr.int 0 ] (Expr.f64 1.0) ] ]);
      (* duplicate buffer *)
      D.make ~name:"dup" ~out:[ D.buffer "w" Scalar.Fp64 ]
        ~inp:[ D.buffer "w" Scalar.Fp64 ]
        ~combine_ops:[ Combine.cc ]
        (D.for_ "i" 2 (D.body [ D.assign "w" [ Expr.idx "i" ] (Expr.f64 1.0) ]));
      (* assignment to input *)
      D.make ~name:"wrin" ~out:[ D.buffer "w" Scalar.Fp64 ]
        ~inp:[ D.buffer "x" Scalar.Fp64 ]
        ~combine_ops:[ Combine.cc ]
        (D.for_ "i" 2 (D.body [ D.assign "x" [ Expr.idx "i" ] (Expr.f64 1.0) ]));
      (* never assigned *)
      D.make ~name:"noassign" ~out:[ D.buffer "w" Scalar.Fp64 ]
        ~inp:[ D.buffer "x" Scalar.Fp64 ]
        ~combine_ops:[ Combine.cc ]
        (D.for_ "i" 2
           (D.body [ D.let_stmt "t" (Expr.read "x" [ Expr.idx "i" ]) ]));
      (* out-view: output depends on a pw-collapsed dimension *)
      D.make ~name:"collapsed" ~out:[ D.buffer "w" Scalar.Fp64 ]
        ~inp:[ D.buffer "x" Scalar.Fp64 ]
        ~combine_ops:[ Combine.pw (Combine.add Scalar.Fp64) ]
        (D.for_ "i" 2
           (D.body [ D.assign "w" [ Expr.idx "i" ] (Expr.read "x" [ Expr.idx "i" ]) ])) ]
  in
  List.iter
    (fun dir ->
      match Validate.run dir with
      | Ok () -> Alcotest.failf "case %s unexpectedly valid" dir.D.dir_name
      | Error e -> (
        let ds = Analyze.directive dir in
        match errors ds with
        | [] -> Alcotest.failf "case %s: analyzer found no error" dir.D.dir_name
        | first :: _ ->
          check Alcotest.string
            (Printf.sprintf "case %s first code" dir.D.dir_name)
            (Validate.error_code e.Validate.kind)
            first.Diag.code))
    cases

let test_multi_error_body () =
  (* two independent broken statements are both reported *)
  let dir =
    D.make ~name:"multi"
      ~out:[ D.buffer "a" Scalar.Fp64; D.buffer "b" Scalar.Fp64 ]
      ~inp:[]
      ~combine_ops:[ Combine.cc ]
      (D.for_ "i" 2
         (D.body
            [ D.assign "a" [ Expr.idx "i" ] (Expr.read "ghost1" [ Expr.idx "i" ]);
              D.assign "b" [ Expr.idx "i" ] (Expr.read "ghost2" [ Expr.idx "i" ]) ]))
  in
  let ds = errors (Analyze.directive dir) in
  check (Alcotest.list Alcotest.string) "both unknown buffers reported"
    [ "MDH007"; "MDH007" ] (codes ds);
  check
    (Alcotest.list (Alcotest.option Alcotest.string))
    "subjects" [ Some "ghost1"; Some "ghost2" ]
    (List.map (fun d -> d.Diag.subject) ds)

let test_out_view_details () =
  (* non-injective output access: the diagnostic exhibits colliding points *)
  let dir =
    D.make ~name:"collide" ~out:[ D.buffer "w" Scalar.Fp64 ]
      ~inp:[ D.buffer "x" Scalar.Fp64 ]
      ~combine_ops:[ Combine.cc; Combine.cc ]
      (D.for_ "i" 2
         (D.for_ "j" 2
            (D.body
               [ D.assign "w"
                   [ Expr.(idx "i" + idx "j") ]
                   (Expr.read "x" [ Expr.idx "i" ]) ])))
  in
  let ds = errors (Analyze.directive dir) in
  check (Alcotest.list Alcotest.string) "one MDH015" [ "MDH015" ] (codes ds);
  let msg = (List.hd ds).Diag.message in
  check Alcotest.bool "names colliding iteration points" true
    (Test_util.contains msg "both write");
  check Alcotest.bool "names the breaking dimension" true
    (Test_util.contains msg "dimension")

(* --- error-code table stability --- *)

let test_code_table_stable () =
  let expected =
    [ ("MDH001", Diag.Error); ("MDH002", Diag.Error); ("MDH003", Diag.Error);
      ("MDH004", Diag.Error); ("MDH005", Diag.Error); ("MDH006", Diag.Error);
      ("MDH007", Diag.Error); ("MDH008", Diag.Error); ("MDH009", Diag.Error);
      ("MDH010", Diag.Error); ("MDH011", Diag.Error); ("MDH012", Diag.Error);
      ("MDH013", Diag.Error); ("MDH014", Diag.Error); ("MDH015", Diag.Error);
      ("MDH016", Diag.Error); ("MDH017", Diag.Error); ("MDH020", Diag.Error);
      ("MDH021", Diag.Error); ("MDH022", Diag.Error); ("MDH023", Diag.Warning);
      ("MDH101", Diag.Warning); ("MDH102", Diag.Warning);
      ("MDH103", Diag.Warning); ("MDH110", Diag.Hint); ("MDH111", Diag.Hint);
      ("MDH112", Diag.Hint); ("MDH113", Diag.Hint); ("MDH120", Diag.Hint);
      ("MDH121", Diag.Hint) ]
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "registered codes and severities"
    (List.map (fun (c, s) -> (c, Diag.severity_to_string s)) expected)
    (List.map (fun (c, s, _) -> (c, Diag.severity_to_string s)) Diag.code_table);
  (* every Validate error kind maps into the table *)
  List.iter
    (fun kind ->
      let code = Validate.error_code kind in
      check Alcotest.bool (code ^ " described") true
        (Diag.describe_code code <> None))
    [ Validate.Imperfect_nest; Validate.Duplicate_loop_var "i";
      Validate.Nonpositive_extent "i";
      Validate.Combine_op_arity { dims = 1; ops = 2 };
      Validate.Mixed_reduction_kinds; Validate.Duplicate_buffer "b";
      Validate.Unknown_buffer "b"; Validate.Assign_to_input "b";
      Validate.Read_of_output "b"; Validate.Multiple_assignment "b";
      Validate.Missing_assignment "b"; Validate.Type_error "t";
      Validate.Shape_error "b"; Validate.Opaque_access_needs_shape "b";
      Validate.Invalid_out_view "b" ]

let test_exit_code_policy () =
  let d code severity =
    { Diag.code; severity; span = None; subject = None; message = "m" }
  in
  check Alcotest.int "clean" 0 (Diag.exit_code []);
  check Alcotest.int "errors fail" 1 (Diag.exit_code [ d "MDH001" Diag.Error ]);
  check Alcotest.int "warnings pass" 0 (Diag.exit_code [ d "MDH101" Diag.Warning ]);
  check Alcotest.int "warnings fail strict" 1
    (Diag.exit_code ~strict:true [ d "MDH101" Diag.Warning ]);
  check Alcotest.int "hints never fail" 0
    (Diag.exit_code ~strict:true [ d "MDH110" Diag.Hint ])

(* --- SARIF --- *)

let test_sarif_wellformed () =
  let module J = Mdh_support.Json_in in
  let ds = Analyze.pragma broken_src in
  let json = J.parse (Diag.sarif ~tool_version:"0.0.0" [ ("broken.mdh", ds) ]) in
  (match J.member "version" json with
  | Some (J.Str "2.1.0") -> ()
  | _ -> Alcotest.fail "sarif version");
  let run =
    match J.member "runs" json with
    | Some (J.Arr [ r ]) -> r
    | _ -> Alcotest.fail "one run expected"
  in
  (match
     Option.bind (J.member "tool" run) (J.member "driver")
     |> Fun.flip Option.bind (J.member "rules")
   with
  | Some (J.Arr rules) ->
    check Alcotest.int "rules = code table" (List.length Diag.code_table)
      (List.length rules)
  | _ -> Alcotest.fail "rules missing");
  match J.member "results" run with
  | Some (J.Arr results) ->
    check Alcotest.int "one result per diagnostic" (List.length ds)
      (List.length results);
    List.iter
      (fun r ->
        (match J.member "ruleId" r with
        | Some (J.Str code) ->
          check Alcotest.bool "ruleId registered" true
            (Diag.describe_code code <> None)
        | _ -> Alcotest.fail "ruleId missing");
        match J.member "level" r with
        | Some (J.Str ("error" | "warning" | "note")) -> ()
        | _ -> Alcotest.fail "bad level")
      results
  | _ -> Alcotest.fail "results missing"

(* --- combine-operator property verification --- *)

(* "first" is associative but NOT commutative: (a . b) . c = a . (b . c) = a *)
let first_fn ~commutative =
  Combine.custom ~name:"first" ~associative:true ~commutative (fun a _ -> a)

let test_opcheck_rejects_false_commutativity () =
  let fn = first_fn ~commutative:true in
  let report = Opcheck.verify ~ty:Scalar.Int32 fn in
  (match report.Opcheck.commutativity with
  | Opcheck.Counterexample _ -> ()
  | _ -> Alcotest.fail "commutativity should be falsified");
  (match report.Opcheck.associativity with
  | Opcheck.Verified n -> check Alcotest.bool "assoc checks ran" true (n > 0)
  | _ -> Alcotest.fail "associativity should hold");
  (match Opcheck.violations fn report with
  | [ ("commutativity", witness) ] ->
    check Alcotest.bool "witness shows values" true (String.length witness > 0)
  | vs ->
    Alcotest.failf "expected one commutativity violation, got %d" (List.length vs));
  let demoted = Opcheck.demote fn report in
  check Alcotest.bool "demoted commutative" false demoted.Combine.commutative;
  check Alcotest.bool "demotion keeps associativity" true demoted.Combine.associative;
  (* correctly-declared "first" has no violations *)
  let honest = first_fn ~commutative:false in
  check Alcotest.int "honest declaration clean" 0
    (List.length (Opcheck.violations honest (Opcheck.verify ~ty:Scalar.Int32 honest)))

let test_opcheck_rejects_false_associativity () =
  (* averaging is commutative but not associative *)
  let avg =
    Combine.custom ~name:"avg" ~associative:true ~commutative:true (fun a b ->
        Scalar.div (Scalar.add a b) (Scalar.F64 2.0))
  in
  let report = Opcheck.verify ~ty:Scalar.Fp64 avg in
  (match report.Opcheck.associativity with
  | Opcheck.Counterexample _ -> ()
  | _ -> Alcotest.fail "associativity should be falsified");
  (match report.Opcheck.commutativity with
  | Opcheck.Verified _ -> ()
  | _ -> Alcotest.fail "commutativity should hold");
  check
    (Alcotest.list Alcotest.string)
    "violations" [ "associativity" ]
    (List.map fst (Opcheck.violations avg report));
  let demoted = Opcheck.demote avg report in
  check Alcotest.bool "demoted associative" false demoted.Combine.associative;
  check Alcotest.bool "demoted op is no longer parallelisable" false
    (Combine.parallelisable (Combine.pw demoted))

let test_opcheck_rejects_false_identity () =
  let add_bad_id =
    Combine.custom ~name:"addone" ~associative:true ~commutative:true
      ~identity:(Scalar.I32 1l) Scalar.add
  in
  let report = Opcheck.verify ~ty:Scalar.Int32 add_bad_id in
  (match report.Opcheck.identity with
  | Some (Opcheck.Counterexample _) -> ()
  | _ -> Alcotest.fail "identity should be falsified");
  check
    (Alcotest.list Alcotest.string)
    "violations" [ "identity" ]
    (List.map fst (Opcheck.violations add_bad_id report));
  check Alcotest.bool "identity withdrawn" true
    ((Opcheck.demote add_bad_id report).Combine.identity = None)

let test_opcheck_unexploited () =
  (* max is commutative but declares only associativity *)
  let shy = Combine.custom ~name:"shy_max" ~associative:true Scalar.max_v in
  let report = Opcheck.verify ~ty:Scalar.Int32 shy in
  check
    (Alcotest.list Alcotest.string)
    "commutativity unexploited" [ "commutativity" ]
    (Opcheck.unexploited shy report);
  check Alcotest.int "no violations" 0 (List.length (Opcheck.violations shy report))

let test_opcheck_deterministic () =
  let fn = first_fn ~commutative:true in
  let r1 = Opcheck.verify ~seed:7 ~ty:Scalar.Fp32 fn in
  let r2 = Opcheck.verify ~seed:7 ~ty:Scalar.Fp32 fn in
  check Alcotest.int "same evaluations" r1.Opcheck.evaluations r2.Opcheck.evaluations;
  match (r1.Opcheck.commutativity, r2.Opcheck.commutativity) with
  | Opcheck.Counterexample w1, Opcheck.Counterexample w2 ->
    check Alcotest.string "same witness" w1 w2
  | _ -> Alcotest.fail "commutativity should be falsified in both runs"

(* the acceptance-criterion scenario: a valid directive whose combine
   operator falsely declares commutativity is rejected by mdhc check *)
let test_directive_rejects_misdeclared_operator () =
  let dir =
    D.make ~name:"lying" ~out:[ D.buffer "w" Scalar.Fp64 ]
      ~inp:[ D.buffer "x" Scalar.Fp64 ]
      ~combine_ops:[ Combine.cc; Combine.pw (first_fn ~commutative:true) ]
      (D.for_ "i" 4
         (D.for_ "k" 4
            (D.body
               [ D.assign "w" [ Expr.idx "i" ]
                   (Expr.read "x" [ Expr.idx "k" ]) ])))
  in
  check Alcotest.bool "Validate accepts (it trusts declarations)" true
    (Result.is_ok (Validate.run dir));
  let ds = Analyze.directive dir in
  check (Alcotest.list Alcotest.string) "MDH021 fires" [ "MDH021" ]
    (codes (errors ds));
  check Alcotest.int "exit code 1" 1 (Diag.exit_code ds);
  (* with verification off the directive passes *)
  check Alcotest.int "no errors without verify_ops" 0
    (Diag.error_count (Analyze.directive ~verify_ops:false dir))

(* --- lints --- *)

let matvec_like ?(inp = []) ?(ops = [ Combine.cc; Combine.pw (Combine.add Scalar.Fp64) ])
    ?(i = 4) ?(k = 4) () =
  D.make ~name:"mv"
    ~out:[ D.buffer "w" Scalar.Fp64 ]
    ~inp:([ D.buffer "m" Scalar.Fp64; D.buffer "v" Scalar.Fp64 ] @ inp)
    ~combine_ops:ops
    (D.for_ "i" i
       (D.for_ "k" k
          (D.body
             [ D.assign "w" [ Expr.idx "i" ]
                 Expr.(
                   read "m" [ idx "i"; idx "k" ] * read "v" [ idx "k" ]) ])))

let find_code code ds = List.find_opt (fun d -> d.Diag.code = code) ds

let test_lint_unused_input () =
  let dir = matvec_like ~inp:[ D.buffer ~shape:[| 8 |] "unused" Scalar.Fp64 ] () in
  let ds = Analyze.directive dir in
  check Alcotest.int "no errors" 0 (Diag.error_count ds);
  match find_code "MDH101" ds with
  | Some d ->
    check (Alcotest.option Alcotest.string) "subject" (Some "unused") d.Diag.subject;
    check Alcotest.string "warning" "warning" (Diag.severity_to_string d.Diag.severity)
  | None -> Alcotest.fail "MDH101 expected"

let test_lint_unparallelisable () =
  let nonassoc =
    Combine.custom ~name:"avg" ~associative:false ~commutative:true (fun a b ->
        Scalar.div (Scalar.add a b) (Scalar.F64 2.0))
  in
  let dir = matvec_like ~ops:[ Combine.cc; Combine.pw nonassoc ] () in
  let ds = Analyze.directive dir in
  check Alcotest.int "no errors" 0 (Diag.error_count ds);
  (match find_code "MDH102" ds with
  | Some d ->
    check (Alcotest.option Alcotest.string) "names the loop" (Some "k") d.Diag.subject
  | None -> Alcotest.fail "MDH102 expected");
  check Alcotest.bool "cc dim still parallel, no MDH103" true
    (find_code "MDH103" ds = None);
  (* all-reduction, non-associative: nothing parallelisable at all *)
  let dir2 =
    D.make ~name:"seq" ~out:[ D.buffer "w" Scalar.Fp64 ]
      ~inp:[ D.buffer "x" Scalar.Fp64 ]
      ~combine_ops:[ Combine.pw nonassoc ]
      (D.for_ "i" 4
         (D.body [ D.assign "w" [ Expr.int 0 ] (Expr.read "x" [ Expr.idx "i" ]) ]))
  in
  let ds2 = Analyze.directive dir2 in
  check Alcotest.bool "MDH103 fires" true (find_code "MDH103" ds2 <> None)

let test_lint_degenerate_extent () =
  let ds = Analyze.directive (matvec_like ~i:1 ()) in
  match find_code "MDH110" ds with
  | Some d ->
    check (Alcotest.option Alcotest.string) "subject" (Some "i") d.Diag.subject;
    check Alcotest.string "hint" "hint" (Diag.severity_to_string d.Diag.severity)
  | None -> Alcotest.fail "MDH110 expected"

let test_lint_locality () =
  (* matmul with the classic ijk loop order: B[k,j] is strided in k *)
  let dir =
    D.make ~name:"mm" ~out:[ D.buffer "c" Scalar.Fp64 ]
      ~inp:[ D.buffer "a" Scalar.Fp64; D.buffer "b" Scalar.Fp64 ]
      ~combine_ops:[ Combine.cc; Combine.cc; Combine.pw (Combine.add Scalar.Fp64) ]
      (D.for_ "i" 4
         (D.for_ "j" 4
            (D.for_ "k" 4
               (D.body
                  [ D.assign "c" [ Expr.idx "i"; Expr.idx "j" ]
                      Expr.(
                        read "a" [ idx "i"; idx "k" ] * read "b" [ idx "k"; idx "j" ]) ]))))
  in
  let ds = Analyze.directive dir in
  (match find_code "MDH111" ds with
  | Some d ->
    check (Alcotest.option Alcotest.string) "blames B" (Some "b") d.Diag.subject
  | None -> Alcotest.fail "MDH111 expected");
  (* matvec walks everything stride-1: no locality hint *)
  check Alcotest.bool "matvec clean" true
    (find_code "MDH111" (Analyze.directive (matvec_like ())) = None)

let test_plan_hint_reduction_parallelism () =
  (* dot is a pure reduction: concatenation-only parallelism is 1, while the
     lowering's default plan tree-reduces k — the plan-aware pass hints *)
  let dot =
    match Mdh_workloads.Catalog.find "dot" with
    | Some w -> w
    | None -> Alcotest.fail "dot workload missing"
  in
  let ds = Analyze.directive (dot.W.make dot.W.test_params) in
  (match find_code "MDH113" ds with
  | Some d ->
    check Alcotest.string "hint" "hint" (Diag.severity_to_string d.Diag.severity);
    check (Alcotest.option Alcotest.string) "blames the reduction loop"
      (Some "k") d.Diag.subject
  | None -> Alcotest.fail "MDH113 expected on dot");
  (* a non-associative reduction cannot be tree-reduced: no hint *)
  let nonassoc =
    Combine.custom ~name:"avg" ~associative:false ~commutative:true (fun a b ->
        Scalar.div (Scalar.add a b) (Scalar.F64 2.0))
  in
  let ds2 = Analyze.directive (matvec_like ~ops:[ Combine.cc; Combine.pw nonassoc ] ()) in
  check Alcotest.bool "no hint without a tree" true (find_code "MDH113" ds2 = None)

(* --- pragma-level diagnostics --- *)

let test_pragma_lex_and_parse_errors () =
  let lex = Analyze.pragma "#pragma mdh out(w : fp32) @" in
  (match lex with
  | [ d ] ->
    check Alcotest.string "lex code" "MDH017" d.Diag.code;
    check Alcotest.bool "lex span" true (d.Diag.span <> None)
  | _ -> Alcotest.fail "one lexical diagnostic expected");
  let parse = Analyze.pragma "#pragma mdh out(w : fp32)\nfor (i = 0; i < 4; i++) w[i] = 1.0;" in
  match parse with
  | [ d ] ->
    check Alcotest.string "parse code" "MDH016" d.Diag.code;
    check Alcotest.bool "parse span" true (d.Diag.span <> None)
  | _ -> Alcotest.fail "one syntax diagnostic expected"

(* --- the hints fixture: one pragma firing every hint code with its span --- *)

let fixture_diagnostics name =
  (* runtest runs in test/, `dune exec` in the workspace root: accept both *)
  let path =
    if Sys.file_exists ("fixtures/" ^ name) then "fixtures/" ^ name
    else "test/fixtures/" ^ name
  in
  Analyze.pragma (In_channel.with_open_text path In_channel.input_all)

let test_hints_fixture_spans () =
  let ds = fixture_diagnostics "hints.mdh" in
  check Alcotest.int "fixture errors" 0 (Diag.error_count ds);
  check Alcotest.int "fixture warnings" 0 (Diag.warning_count ds);
  check Alcotest.int "fixture hints" 6 (List.length ds);
  List.iter
    (fun (code, line, col) ->
      match find_code code ds with
      | None -> Alcotest.failf "%s expected on hints.mdh" code
      | Some d ->
        check Alcotest.bool
          (Printf.sprintf "%s span pinned at %d:%d" code line col)
          true
          (d.Diag.span = Some { Diag.line; col }))
    [ ("MDH110", 2, 1);   (* loop u: degenerate extent 1 *)
      ("MDH111", 1, 43);  (* b[k,u]: innermost index strided *)
      ("MDH112", 1, 77);  (* bor: unexploited commutativity *)
      ("MDH113", 1, 77);  (* 1-way cc vs 60-way tree reduction *)
      ("MDH120", 1, 17);  (* (a[k]+1)^2 CSE: flops 4 -> 3 *)
      ("MDH121", 1, 1) ]  (* int32 bor tree-balance 60 -> 32 *)

(* --- the errors fixture: one statement per body error, each at its span --- *)

let test_errors_fixture_spans () =
  let ds = fixture_diagnostics "errors.mdh" in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.pair Alcotest.int Alcotest.int)))
    "codes at their statements"
    [ ("MDH012", (4, 5));   (* let s = v[k] && M[i, k] *)
      ("MDH007", (5, 5));   (* ghost[i] = ... *)
      ("MDH008", (6, 5));   (* M[i, k] = ... *)
      ("MDH009", (7, 5));   (* y[i] = w[i] * ... *)
      ("MDH010", (9, 5));   (* second w[i] = ... *)
      ("MDH011", (1, 37)) ] (* z : fp32, never assigned *)
    (List.map
       (fun d ->
         match d.Diag.span with
         | Some { Diag.line; col } -> (d.Diag.code, (line, col))
         | None -> (d.Diag.code, (0, 0)))
       ds)

(* --- whole-catalogue cleanliness (mirrors scripts/check.sh's gate) --- *)

let test_catalogue_clean () =
  List.iter
    (fun (w : W.t) ->
      let ds = Analyze.directive (w.W.make w.W.test_params) in
      check Alcotest.int
        (w.W.wl_name ^ " errors")
        0 (Diag.error_count ds);
      check Alcotest.int
        (w.W.wl_name ^ " warnings")
        0 (Diag.warning_count ds))
    Mdh_workloads.Catalog.all

let suite =
  ( "analysis",
    [ Alcotest.test_case "accumulation ordering" `Quick test_accumulation_ordering;
      Alcotest.test_case "first error matches Validate" `Quick
        test_first_error_matches_validate;
      Alcotest.test_case "multi-error body" `Quick test_multi_error_body;
      Alcotest.test_case "out-view details" `Quick test_out_view_details;
      Alcotest.test_case "code table stable" `Quick test_code_table_stable;
      Alcotest.test_case "exit-code policy" `Quick test_exit_code_policy;
      Alcotest.test_case "sarif well-formed" `Quick test_sarif_wellformed;
      Alcotest.test_case "opcheck rejects false commutativity" `Quick
        test_opcheck_rejects_false_commutativity;
      Alcotest.test_case "opcheck rejects false associativity" `Quick
        test_opcheck_rejects_false_associativity;
      Alcotest.test_case "opcheck rejects false identity" `Quick
        test_opcheck_rejects_false_identity;
      Alcotest.test_case "opcheck reports unexploited properties" `Quick
        test_opcheck_unexploited;
      Alcotest.test_case "opcheck deterministic" `Quick test_opcheck_deterministic;
      Alcotest.test_case "misdeclared operator rejected" `Quick
        test_directive_rejects_misdeclared_operator;
      Alcotest.test_case "lint: unused input" `Quick test_lint_unused_input;
      Alcotest.test_case "lint: unparallelisable dims" `Quick
        test_lint_unparallelisable;
      Alcotest.test_case "lint: degenerate extent" `Quick test_lint_degenerate_extent;
      Alcotest.test_case "lint: locality" `Quick test_lint_locality;
      Alcotest.test_case "plan hint: reduction parallelism" `Quick
        test_plan_hint_reduction_parallelism;
      Alcotest.test_case "pragma lex/parse diagnostics" `Quick
        test_pragma_lex_and_parse_errors;
      Alcotest.test_case "hints fixture spans pinned" `Quick
        test_hints_fixture_spans;
      Alcotest.test_case "errors fixture spans pinned" `Quick
        test_errors_fixture_spans;
      Alcotest.test_case "catalogue clean" `Quick test_catalogue_clean ] )
