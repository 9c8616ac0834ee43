(* Tests for the MDH directive frontend: validation rules and the
   directive-to-DSL transformation (Section 4). *)

module Scalar = Mdh_tensor.Scalar
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
open Mdh_directive

let check = Alcotest.check

let matvec_nest ?(assign_expr = Expr.(read "M" [ idx "i"; idx "k" ] * read "v" [ idx "k" ]))
    ?(target = "w") ?(target_idx = [ Expr.idx "i" ]) () =
  Directive.for_ "i" 4
    (Directive.for_ "k" 3 (Directive.body [ Directive.assign target target_idx assign_expr ]))

let matvec ?assign_expr ?target ?target_idx ?(combine_ops = [ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]) () =
  Directive.make ~name:"matvec"
    ~out:[ Directive.buffer "w" Scalar.Fp32 ]
    ~inp:[ Directive.buffer "M" Scalar.Fp32; Directive.buffer "v" Scalar.Fp32 ]
    ~combine_ops
    (matvec_nest ?assign_expr ?target ?target_idx ())

let kind_of dir =
  match Validate.run dir with Ok () -> None | Error e -> Some e.kind

let expect_ok dir = check Alcotest.bool "valid" true (Validate.run dir = Ok ())

let test_valid_matvec () = expect_ok (matvec ())

let test_imperfect_nest_rejected () =
  let nest =
    Directive.for_ "i" 4
      (Directive.Seq
         [ Directive.body [ Directive.assign "w" [ Expr.idx "i" ] (Expr.f32 0.0) ];
           Directive.for_ "k" 3 (Directive.body []) ])
  in
  let dir =
    Directive.make ~name:"bad" ~out:[ Directive.buffer "w" Scalar.Fp32 ] ~inp:[]
      ~combine_ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
      nest
  in
  check Alcotest.bool "imperfect" true (kind_of dir = Some Validate.Imperfect_nest)

let test_duplicate_loop_var () =
  let nest =
    Directive.for_ "i" 4
      (Directive.for_ "i" 3 (Directive.body [ Directive.assign "w" [ Expr.idx "i" ] (Expr.f32 0.0) ]))
  in
  let dir =
    Directive.make ~name:"bad" ~out:[ Directive.buffer "w" Scalar.Fp32 ] ~inp:[]
      ~combine_ops:[ Combine.cc; Combine.cc ] nest
  in
  check Alcotest.bool "dup var" true (kind_of dir = Some (Validate.Duplicate_loop_var "i"))

let test_nonpositive_extent () =
  let nest =
    Directive.for_ "i" 0 (Directive.body [ Directive.assign "w" [ Expr.idx "i" ] (Expr.f32 0.0) ])
  in
  let dir =
    Directive.make ~name:"bad" ~out:[ Directive.buffer "w" Scalar.Fp32 ] ~inp:[]
      ~combine_ops:[ Combine.cc ] nest
  in
  check Alcotest.bool "extent" true (kind_of dir = Some (Validate.Nonpositive_extent "i"))

let test_combine_op_arity () =
  let dir = matvec ~combine_ops:[ Combine.cc ] () in
  check Alcotest.bool "arity" true
    (kind_of dir = Some (Validate.Combine_op_arity { dims = 2; ops = 1 }))

let test_mixed_pw_ps_rejected () =
  (* pw and ps do not satisfy the interchange law (max of scans is not the
     scan of maxes), so the combination is rejected — found by the fuzz
     harness, see test_fuzz.ml *)
  let nest =
    Directive.for_ "i" 3
      (Directive.for_ "j" 3
         (Directive.body
            [ Directive.assign "w" [ Expr.idx "j" ] (Expr.read "v" [ Expr.idx "i"; Expr.idx "j" ]) ]))
  in
  let dir =
    Directive.make ~name:"bad" ~out:[ Directive.buffer "w" Scalar.Fp32 ]
      ~inp:[ Directive.buffer "v" Scalar.Fp32 ]
      ~combine_ops:
        [ Combine.pw (Combine.max Scalar.Fp32); Combine.ps (Combine.add Scalar.Fp32) ]
      nest
  in
  check Alcotest.bool "mixed" true (kind_of dir = Some Validate.Mixed_reduction_kinds)

let test_duplicate_buffer () =
  let dir =
    Directive.make ~name:"bad"
      ~out:[ Directive.buffer "w" Scalar.Fp32 ]
      ~inp:[ Directive.buffer "w" Scalar.Fp32 ]
      ~combine_ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
      (matvec_nest ())
  in
  check Alcotest.bool "dup buffer" true (kind_of dir = Some (Validate.Duplicate_buffer "w"))

let test_assign_to_input () =
  let dir = matvec ~target:"M" ~target_idx:[ Expr.idx "i"; Expr.idx "k" ] () in
  check Alcotest.bool "assign input" true (kind_of dir = Some (Validate.Assign_to_input "M"))

let test_assign_unknown () =
  let dir = matvec ~target:"nope" () in
  check Alcotest.bool "unknown" true (kind_of dir = Some (Validate.Unknown_buffer "nope"))

let test_read_of_output () =
  (* the paper's key rule: `=` not `+=` — reading the output is rejected *)
  let dir =
    matvec ~assign_expr:Expr.(read "w" [ idx "i" ] + read "M" [ idx "i"; idx "k" ]) ()
  in
  check Alcotest.bool "read output" true (kind_of dir = Some (Validate.Read_of_output "w"))

let test_multiple_assignment () =
  let nest =
    Directive.for_ "i" 4
      (Directive.for_ "k" 3
         (Directive.body
            [ Directive.assign "w" [ Expr.idx "i" ] (Expr.f32 0.0);
              Directive.assign "w" [ Expr.idx "i" ] (Expr.f32 1.0) ]))
  in
  let dir =
    Directive.make ~name:"bad" ~out:[ Directive.buffer "w" Scalar.Fp32 ] ~inp:[]
      ~combine_ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
      nest
  in
  check Alcotest.bool "multi assign" true
    (kind_of dir = Some (Validate.Multiple_assignment "w"))

let test_missing_assignment () =
  let dir =
    Directive.make ~name:"bad"
      ~out:[ Directive.buffer "w" Scalar.Fp32; Directive.buffer "u" Scalar.Fp32 ]
      ~inp:[ Directive.buffer "M" Scalar.Fp32; Directive.buffer "v" Scalar.Fp32 ]
      ~combine_ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
      (matvec_nest ())
  in
  check Alcotest.bool "missing" true (kind_of dir = Some (Validate.Missing_assignment "u"))

let test_type_mismatch () =
  let dir =
    Directive.make ~name:"bad"
      ~out:[ Directive.buffer "w" Scalar.Fp64 ]
      ~inp:[ Directive.buffer "M" Scalar.Fp32; Directive.buffer "v" Scalar.Fp32 ]
      ~combine_ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp64) ]
      (matvec_nest ())
  in
  check Alcotest.bool "type" true
    (match kind_of dir with Some (Validate.Type_error _) -> true | _ -> false)

let test_declared_shape_too_small () =
  let dir =
    Directive.make ~name:"bad"
      ~out:[ Directive.buffer "w" Scalar.Fp32 ]
      ~inp:[ Directive.buffer ~shape:[| 2; 3 |] "M" Scalar.Fp32; Directive.buffer "v" Scalar.Fp32 ]
      ~combine_ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
      (matvec_nest ())
  in
  check Alcotest.bool "shape" true
    (match kind_of dir with Some (Validate.Shape_error _) -> true | _ -> false)

let test_declared_shape_larger_ok () =
  (* Listing 12: buffers may be declared larger than the accessed region *)
  let dir =
    Directive.make ~name:"mcc_like"
      ~out:[ Directive.buffer "w" Scalar.Fp32 ]
      ~inp:[ Directive.buffer ~shape:[| 10; 9 |] "M" Scalar.Fp32; Directive.buffer "v" Scalar.Fp32 ]
      ~combine_ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
      (matvec_nest ())
  in
  expect_ok dir;
  let md = Transform.to_md_hom_exn dir in
  let m = Option.get (Mdh_core.Md_hom.find_input md "M") in
  check (Alcotest.array Alcotest.int) "declared kept" [| 10; 9 |] m.inp_shape

let test_negative_access_rejected () =
  let dir =
    matvec ~assign_expr:Expr.(read "M" [ idx "i" - int 1; idx "k" ] * read "v" [ idx "k" ]) ()
  in
  check Alcotest.bool "negative" true
    (match kind_of dir with Some (Validate.Shape_error _) -> true | _ -> false)

let test_opaque_access_needs_shape () =
  let dir =
    matvec ~assign_expr:Expr.(read "M" [ idx "i" * idx "k"; idx "k" ] * read "v" [ idx "k" ]) ()
  in
  check Alcotest.bool "opaque" true
    (kind_of dir = Some (Validate.Opaque_access_needs_shape "M"));
  (* with a declared shape the same directive is accepted *)
  let dir_ok =
    Directive.make ~name:"ok"
      ~out:[ Directive.buffer "w" Scalar.Fp32 ]
      ~inp:[ Directive.buffer ~shape:[| 16; 3 |] "M" Scalar.Fp32; Directive.buffer "v" Scalar.Fp32 ]
      ~combine_ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
      (matvec_nest
         ~assign_expr:Expr.(read "M" [ idx "i" * idx "k"; idx "k" ] * read "v" [ idx "k" ]) ())
  in
  expect_ok dir_ok

let test_out_view_uses_collapsed_dim () =
  (* w indexed by the reduction dimension k: invalid *)
  let dir = matvec ~target_idx:[ Expr.idx "k" ] () in
  check Alcotest.bool "collapsed" true
    (kind_of dir = Some (Validate.Invalid_out_view "w"))

let test_out_view_not_injective () =
  (* two cc dims writing through (i) only: collisions *)
  let nest =
    Directive.for_ "i" 4
      (Directive.for_ "j" 3
         (Directive.body [ Directive.assign "w" [ Expr.idx "i" ] (Expr.f32 1.0) ]))
  in
  let dir =
    Directive.make ~name:"bad" ~out:[ Directive.buffer "w" Scalar.Fp32 ] ~inp:[]
      ~combine_ops:[ Combine.cc; Combine.cc ] nest
  in
  check Alcotest.bool "not injective" true
    (kind_of dir = Some (Validate.Invalid_out_view "w"));
  (* the fail-fast error carries the collision witness *)
  let message = match Validate.run dir with Error e -> e.message | Ok () -> "" in
  check Alcotest.bool "names the colliding points" true
    (Test_util.contains message "iteration points (i=0, j=0) and (i=0, j=1)");
  check Alcotest.bool "names the written cell" true
    (Test_util.contains message "both write w[0]")

let test_elaborate_reports_every_violation () =
  (* test/fixtures/broken.mdh plus two assignments to undeclared buffers:
     elaborate reports all five in pass order, run the first *)
  let dir =
    Directive.make ~name:"several"
      ~out:[ Directive.buffer "w" Scalar.Fp32 ]
      ~inp:[ Directive.buffer "M" Scalar.Fp32; Directive.buffer "v" Scalar.Fp32 ]
      ~combine_ops:
        [ Combine.cc; Combine.pw (Combine.add Scalar.Fp32);
          Combine.pw (Combine.mul Scalar.Fp32) ]
      (Directive.for_ "i" 4
         (Directive.for_ "i" 0
            (Directive.body
               [ Directive.assign "w" [ Expr.idx "i" ]
                   Expr.(read "M" [ idx "i"; idx "i" ] * read "v" [ idx "i" ]);
                 Directive.assign "g1" [ Expr.idx "i" ] (Expr.f32 1.0);
                 Directive.assign "g2" [ Expr.idx "i" ] (Expr.f32 2.0) ])))
  in
  let errors =
    match Validate.elaborate dir with
    | Ok _ -> Alcotest.fail "broken directive elaborated"
    | Error errors -> errors
  in
  check Alcotest.bool "kinds in pass order" true
    (List.map (fun (e : Validate.error) -> e.kind) errors
    = [ Validate.Duplicate_loop_var "i"; Validate.Nonpositive_extent "i";
        Validate.Combine_op_arity { dims = 2; ops = 3 };
        Validate.Unknown_buffer "g1"; Validate.Unknown_buffer "g2" ]);
  check Alcotest.bool "sites" true
    (List.map (fun (e : Validate.error) -> e.site) errors
    = [ Validate.Loop 0; Validate.Loop 1; Validate.Combine_ops; Validate.Stmt 1;
        Validate.Stmt 2 ]);
  check
    (Alcotest.list (Alcotest.option Alcotest.string))
    "subjects"
    [ Some "i"; Some "i"; None; Some "g1"; Some "g2" ]
    (List.map (fun (e : Validate.error) -> e.subject) errors);
  check Alcotest.bool "run returns the first" true
    (Validate.run dir = Error (List.hd errors))

let test_let_bindings_supported () =
  let nest =
    Directive.for_ "i" 4
      (Directive.for_ "k" 3
         (Directive.body
            [ Directive.let_stmt "t" Expr.(read "M" [ idx "i"; idx "k" ]);
              Directive.assign "w" [ Expr.idx "i" ] Expr.(var "t" * read "v" [ idx "k" ]) ]))
  in
  let dir =
    Directive.make ~name:"matvec_let"
      ~out:[ Directive.buffer "w" Scalar.Fp32 ]
      ~inp:[ Directive.buffer "M" Scalar.Fp32; Directive.buffer "v" Scalar.Fp32 ]
      ~combine_ops:[ Combine.cc; Combine.pw (Combine.add Scalar.Fp32) ]
      nest
  in
  expect_ok dir;
  let md = Transform.to_md_hom_exn dir in
  (* the let is folded into the output value; the access is still found *)
  let m = Option.get (Mdh_core.Md_hom.find_input md "M") in
  check Alcotest.int "access found through let" 1 (List.length m.accesses)

let test_transform_views () =
  let md = Transform.to_md_hom_exn (matvec ()) in
  let v = Option.get (Mdh_core.Md_hom.find_input md "v") in
  let access = List.hd v.accesses in
  (* inp_view for v: (i,k) -> (k), as in Listing 6 *)
  check (Alcotest.array Alcotest.int) "v view" [| 9 |]
    (Mdh_tensor.Index_fn.apply access.fn [| 5; 9 |]);
  let o = List.hd md.outputs in
  (* out_view for w: (i,k) -> (i) *)
  check (Alcotest.array Alcotest.int) "w view" [| 5 |]
    (Mdh_tensor.Index_fn.apply o.out_access.fn [| 5; 9 |])

let test_transform_dedupes_accesses () =
  (* the same textual access twice is one view entry; distinct offsets are
     distinct entries (stencil #ACC counting) *)
  let nest =
    Directive.for_ "i" 4
      (Directive.body
         [ Directive.assign "y" [ Expr.idx "i" ]
             Expr.(
               read "x" [ idx "i" ] + read "x" [ idx "i" ]
               + read "x" [ idx "i" + int 1 ]) ])
  in
  let dir =
    Directive.make ~name:"s" ~out:[ Directive.buffer "y" Scalar.Fp32 ]
      ~inp:[ Directive.buffer "x" Scalar.Fp32 ]
      ~combine_ops:[ Combine.cc ] nest
  in
  let md = Transform.to_md_hom_exn dir in
  let x = Option.get (Mdh_core.Md_hom.find_input md "x") in
  check Alcotest.int "two distinct accesses" 2 (List.length x.accesses)

let test_pp_roundtrips_names () =
  let s = Format.asprintf "%a" Directive.pp (matvec ()) in
  check Alcotest.bool "mentions combine ops" true
    (Test_util.contains s "combine_ops( cc, pw(add) )");
  check Alcotest.bool "mentions loop" true (Test_util.contains s "for i in range(4)")

let test_loops_accessor () =
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "loops" [ ("i", 4); ("k", 3) ]
    (Directive.loops (matvec ()))

let suite =
  let tc = Alcotest.test_case in
  ( "directive",
    [ tc "valid matvec" `Quick test_valid_matvec;
      tc "imperfect nest rejected" `Quick test_imperfect_nest_rejected;
      tc "duplicate loop var" `Quick test_duplicate_loop_var;
      tc "nonpositive extent" `Quick test_nonpositive_extent;
      tc "combine op arity" `Quick test_combine_op_arity;
      tc "mixed pw/ps rejected" `Quick test_mixed_pw_ps_rejected;
      tc "duplicate buffer" `Quick test_duplicate_buffer;
      tc "assign to input" `Quick test_assign_to_input;
      tc "assign unknown buffer" `Quick test_assign_unknown;
      tc "read of output rejected" `Quick test_read_of_output;
      tc "multiple assignment" `Quick test_multiple_assignment;
      tc "missing assignment" `Quick test_missing_assignment;
      tc "type mismatch" `Quick test_type_mismatch;
      tc "declared shape too small" `Quick test_declared_shape_too_small;
      tc "declared shape larger ok" `Quick test_declared_shape_larger_ok;
      tc "negative access rejected" `Quick test_negative_access_rejected;
      tc "opaque access needs shape" `Quick test_opaque_access_needs_shape;
      tc "out view uses collapsed dim" `Quick test_out_view_uses_collapsed_dim;
      tc "out view not injective" `Quick test_out_view_not_injective;
      tc "elaborate reports every violation" `Quick
        test_elaborate_reports_every_violation;
      tc "let bindings" `Quick test_let_bindings_supported;
      tc "transform views" `Quick test_transform_views;
      tc "transform dedupes accesses" `Quick test_transform_dedupes_accesses;
      tc "pretty printer" `Quick test_pp_roundtrips_names;
      tc "loops accessor" `Quick test_loops_accessor ] )
