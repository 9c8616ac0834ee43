(* Tests for the workload catalogue: every case study validates, transforms,
   matches its Figure 3 characteristics, and computes its oracle's result. *)

module W = Mdh_workloads.Workload
module Catalog = Mdh_workloads.Catalog
module Md_hom = Mdh_core.Md_hom
module Buffer = Mdh_tensor.Buffer
module Scalar = Mdh_tensor.Scalar
module Dense = Mdh_tensor.Dense

let check = Alcotest.check

let test_all_validate_at_paper_sizes () =
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (inp, params) ->
          match Mdh_directive.Validate.run (w.W.make params) with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s inp %s: %s" w.W.wl_name inp
              (Mdh_directive.Validate.error_to_string e))
        ((w.W.test_params |> fun tp -> ("test", tp) :: w.W.paper_inputs)))
    Catalog.all

(* Figure 3 characteristics, workload by workload *)
let expect_characteristics w inp ~rank ~red ~inj =
  let md = W.to_md_hom w (List.assoc inp w.W.paper_inputs) in
  let c = Md_hom.characteristics md in
  check Alcotest.int (w.W.wl_name ^ " rank") rank c.Md_hom.iter_space_rank;
  check Alcotest.int (w.W.wl_name ^ " reduction dims") red c.Md_hom.n_reduction_dims;
  check (Alcotest.option Alcotest.bool) (w.W.wl_name ^ " injectivity") (Some inj)
    c.Md_hom.injective_accesses

let test_figure3_characteristics () =
  expect_characteristics Mdh_workloads.Linalg.dot "1" ~rank:1 ~red:1 ~inj:true;
  expect_characteristics Mdh_workloads.Linalg.matvec "1" ~rank:2 ~red:1 ~inj:false;
  expect_characteristics Mdh_workloads.Linalg.matmul "1" ~rank:3 ~red:1 ~inj:false;
  expect_characteristics Mdh_workloads.Linalg.matmul_t "1" ~rank:3 ~red:1 ~inj:false;
  expect_characteristics Mdh_workloads.Linalg.bmatmul "1" ~rank:4 ~red:1 ~inj:false;
  expect_characteristics Mdh_workloads.Stencils.gaussian_2d "1" ~rank:2 ~red:0 ~inj:false;
  expect_characteristics Mdh_workloads.Stencils.jacobi_3d "1" ~rank:3 ~red:0 ~inj:false;
  expect_characteristics Mdh_workloads.Prl.prl "1" ~rank:2 ~red:1 ~inj:false;
  expect_characteristics Mdh_workloads.Ccsdt.ccsdt "1" ~rank:7 ~red:1 ~inj:false;
  expect_characteristics Mdh_workloads.Deep_learning.mcc "1" ~rank:7 ~red:3 ~inj:false;
  expect_characteristics Mdh_workloads.Deep_learning.mcc_caps "1" ~rank:10 ~red:4
    ~inj:false

let test_figure3_sizes () =
  let sizes w inp = W.sizes_strings w (List.assoc inp w.W.paper_inputs) in
  check (Alcotest.list Alcotest.string) "matvec inp1" [ "4096x4096"; "4096" ]
    (sizes Mdh_workloads.Linalg.matvec "1");
  check (Alcotest.list Alcotest.string) "matmul inp2" [ "1x2048"; "2048x1000" ]
    (sizes Mdh_workloads.Linalg.matmul "2");
  check (Alcotest.list Alcotest.string) "matmul_t" [ "64x10"; "500x64" ]
    (sizes Mdh_workloads.Linalg.matmul_t "1");
  check (Alcotest.list Alcotest.string) "bmatmul" [ "16x10x64"; "16x64x500" ]
    (sizes Mdh_workloads.Linalg.bmatmul "1");
  check (Alcotest.list Alcotest.string) "ccsdt inp1"
    [ "24x16x16x16"; "24x16x24x24" ]
    (sizes Mdh_workloads.Ccsdt.ccsdt "1");
  check (Alcotest.list Alcotest.string) "mcc inp2"
    [ "1x230x230x3"; "64x7x7x3" ]
    (sizes Mdh_workloads.Deep_learning.mcc "2");
  check (Alcotest.list Alcotest.string) "mcc_caps inp1"
    [ "16x230x230x3x4x4"; "64x7x7x3x4x4" ]
    (sizes Mdh_workloads.Deep_learning.mcc_caps "1")

let test_gen_is_deterministic () =
  List.iter
    (fun (w : W.t) ->
      let a = w.W.gen w.W.test_params ~seed:5 in
      let b = w.W.gen w.W.test_params ~seed:5 in
      let c = w.W.gen w.W.test_params ~seed:6 in
      List.iter
        (fun name ->
          check Alcotest.bool (w.W.wl_name ^ " same seed") true
            (Dense.equal (Buffer.data (Buffer.env_find a name))
               (Buffer.data (Buffer.env_find b name))))
        (Buffer.env_names a);
      check Alcotest.bool (w.W.wl_name ^ " different seed") true
        (List.exists
           (fun name ->
             not
               (Dense.equal (Buffer.data (Buffer.env_find a name))
                  (Buffer.data (Buffer.env_find c name))))
           (Buffer.env_names a)))
    Catalog.all

let test_exec_matches_oracles () =
  List.iter
    (fun (w : W.t) ->
      match w.W.reference with
      | None -> ()
      | Some oracle ->
        let md = W.to_md_hom w w.W.test_params in
        let env = w.W.gen w.W.test_params ~seed:77 in
        let got = Mdh_core.Semantics.exec md env in
        let expected = oracle w.W.test_params env in
        List.iter
          (fun (o : Md_hom.output) ->
            check Alcotest.bool (w.W.wl_name ^ "/" ^ o.Md_hom.out_name) true
              (Dense.approx_equal ~rel:1e-3 ~abs:1e-4
                 (Buffer.data (Buffer.env_find got o.Md_hom.out_name))
                 (Buffer.data (Buffer.env_find expected o.Md_hom.out_name))))
          md.Md_hom.outputs)
    Catalog.all

let test_prl_finds_injected_duplicates () =
  (* a perfect duplicate in the registry must be found with the certain
     measure: build a db that contains the new record itself *)
  let params = [ ("N", 4); ("I", 10) ] in
  let env = Mdh_workloads.Prl.prl.W.gen params ~seed:3 in
  let db = Buffer.data (Buffer.env_find env "db") in
  let newp = Buffer.data (Buffer.env_find env "newp") in
  (* plant new record 0 as db record 7 *)
  Dense.set db [| 7 |] (Dense.get newp [| 0 |]);
  let md = W.to_md_hom Mdh_workloads.Prl.prl params in
  let out = Mdh_core.Semantics.exec md env in
  let matched = Dense.get (Buffer.data (Buffer.env_find out "match")) [| 0 |] in
  check Alcotest.int "certain measure" Mdh_workloads.Prl.certain_measure
    (Scalar.to_int (Scalar.field matched "id_measure"))

let test_prl_best_is_associative_on_samples () =
  let rng = Mdh_support.Rng.create 17 in
  let random_match () =
    Scalar.R
      [ ("match_id", Scalar.i64 (Mdh_support.Rng.int rng 100));
        ("match_weight", Scalar.F64 (float_of_int (Mdh_support.Rng.int rng 10)));
        ("id_measure", Scalar.i32 (Mdh_support.Rng.int rng 15)) ]
  in
  let f = Mdh_workloads.Prl.prl_best.Mdh_combine.Combine.apply in
  for _ = 1 to 500 do
    let a = random_match () and b = random_match () and c = random_match () in
    check Test_util.scalar_value "assoc" (f (f a b) c) (f a (f b c))
  done

(* The operators' bodies (through Eval) select exactly what the oracles'
   hand-written comparators select: on Opcheck's sample domain and on
   seeded random records drawn from small key domains, so that many pairs
   tie on the first key and on the first two. *)
let test_bodies_match_hand_written_oracles () =
  let rng = Mdh_support.Rng.create 23 in
  let pick xs = List.nth xs (Mdh_support.Rng.int rng (List.length xs)) in
  let agree name (fn : Mdh_combine.Combine.custom_fn) oracle ty random =
    let vs = Mdh_analysis.Opcheck.samples ty @ List.init 60 (fun _ -> random ()) in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if not (Scalar.equal (fn.Mdh_combine.Combine.apply a b) (oracle a b)) then
              Alcotest.failf "%s %s %s: body and oracle disagree" name
                (Scalar.value_to_string a) (Scalar.value_to_string b))
          vs)
      vs
  in
  agree "prl_best" Mdh_workloads.Prl.prl_best Mdh_workloads.Prl.oracle_best
    Mdh_workloads.Prl.match_record_ty (fun () ->
      Scalar.R
        [ ("match_id", Scalar.i64 (Mdh_support.Rng.int rng 6));
          ("match_weight", Scalar.F64 (pick [ -1.5; 0.5; 2.0 ]));
          ("id_measure", Scalar.i32 (pick [ 1; 3; 14 ])) ]);
  agree "kmeans_nearest" Mdh_workloads.Kmeans.nearest Mdh_workloads.Kmeans.oracle_nearest
    Mdh_workloads.Kmeans.assign_record_ty (fun () ->
      Scalar.R
        [ ("cluster_id", Scalar.i64 (Mdh_support.Rng.int rng 6));
          ("score", Scalar.F64 (pick [ 0.25; 1.0; 4.5 ]));
          ("dist", Scalar.F64 (pick [ 0.0; 0.5; 3.0 ])) ])

let test_mbbs_scan_semantics () =
  let params = [ ("I", 6); ("J", 3) ] in
  let md = W.to_md_hom Mdh_workloads.Mbbs.mbbs params in
  check Alcotest.bool "has ps dim" true
    (Array.exists
       (function Mdh_combine.Combine.Ps _ -> true | _ -> false)
       md.Md_hom.combine_ops);
  (* output keeps full extent despite being a reduction *)
  check (Alcotest.array Alcotest.int) "result shape" [| 6; 3 |] (Md_hom.result_shape md)

let test_catalog_lookup () =
  check Alcotest.bool "finds" true (Catalog.find "matvec" <> None);
  check Alcotest.bool "case-insensitive" true (Catalog.find "MCC_CAPS" <> None);
  check Alcotest.bool "missing" true (Catalog.find "nope" = None);
  check Alcotest.int "figure3 has 11 rows" 11 (List.length Catalog.figure3)

let suite =
  let tc = Alcotest.test_case in
  ( "workloads",
    [ tc "all validate at paper sizes" `Quick test_all_validate_at_paper_sizes;
      tc "figure 3 characteristics" `Quick test_figure3_characteristics;
      tc "figure 3 sizes" `Quick test_figure3_sizes;
      tc "generators deterministic" `Quick test_gen_is_deterministic;
      tc "exec matches oracles" `Slow test_exec_matches_oracles;
      tc "PRL finds injected duplicate" `Quick test_prl_finds_injected_duplicates;
      tc "prl_best associative" `Quick test_prl_best_is_associative_on_samples;
      tc "operator bodies = hand-written oracles" `Quick
        test_bodies_match_hand_written_oracles;
      tc "MBBS scan semantics" `Quick test_mbbs_scan_semantics;
      tc "catalogue lookup" `Quick test_catalog_lookup ] )
