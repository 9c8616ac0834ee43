module Scalar = Mdh_tensor.Scalar
module Dense = Mdh_tensor.Dense
module Buffer = Mdh_tensor.Buffer
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module D = Mdh_directive.Directive
module Rng = Mdh_support.Rng

let p = Workload.p
let fadd = Combine.add Scalar.Fp32

let get_f env name idx =
  Scalar.to_float (Dense.get (Buffer.data (Buffer.env_find env name)) idx)

(* --- MCC (Listing 12) --- *)

let mcc_img_shape params =
  let e name = p params name in
  (* the declared, "artificially enlarged" image buffer: [N, 2P+R-1, 2Q+S-1, C] *)
  [| e "N"; (2 * e "P") + e "R" - 1; (2 * e "Q") + e "S" - 1; e "C" |]

let mcc =
  let make params =
    let e name = p params name in
    let nest =
      List.fold_right
        (fun (d, extent) acc -> D.for_ d extent acc)
        [ ("n", e "N"); ("p", e "P"); ("q", e "Q"); ("k", e "K"); ("r", e "R");
          ("s", e "S"); ("c", e "C") ]
        (D.body
           [ D.assign "res"
               Expr.[ idx "n"; idx "p"; idx "q"; idx "k" ]
               Expr.(
                 read "img"
                   [ idx "n"; (int 2 * idx "p") + idx "r"; (int 2 * idx "q") + idx "s";
                     idx "c" ]
                 * read "flt" [ idx "k"; idx "r"; idx "s"; idx "c" ]) ])
    in
    D.make ~name:"MCC"
      ~out:[ D.buffer "res" Scalar.Fp32 ]
      ~inp:
        [ D.buffer ~shape:(mcc_img_shape params) "img" Scalar.Fp32;
          D.buffer "flt" Scalar.Fp32 ]
      ~combine_ops:
        [ Combine.cc; Combine.cc; Combine.cc; Combine.cc; Combine.pw fadd;
          Combine.pw fadd; Combine.pw fadd ]
      nest
  in
  let gen params ~seed =
    let e name = p params name in
    let rng = Rng.create seed in
    Buffer.env_of_list
      [ Workload.float_buffer "img" rng (mcc_img_shape params);
        Workload.float_buffer "flt" rng [| e "K"; e "R"; e "S"; e "C" |] ]
  in
  let reference params env =
    let e name = p params name in
    let out =
      Dense.of_fn Scalar.Fp32 [| e "N"; e "P"; e "Q"; e "K" |] (fun idx ->
          let acc = ref 0.0 in
          for r = 0 to e "R" - 1 do
            for s = 0 to e "S" - 1 do
              for c = 0 to e "C" - 1 do
                acc :=
                  !acc
                  +. (get_f env "img" [| idx.(0); (2 * idx.(1)) + r; (2 * idx.(2)) + s; c |]
                     *. get_f env "flt" [| idx.(3); r; s; c |])
              done
            done
          done;
          Scalar.f32 !acc)
    in
    Buffer.env_add env (Buffer.of_dense "res" out)
  in
  { Workload.wl_name = "MCC"; domain = "Deep Learning"; basic_type = "fp32"; make;
    paper_inputs =
      [ (* ResNet-50 late layer: 7x7x512 image, 512 3x3 filters, stride 2 *)
        ("1",
         [ ("N", 1); ("P", 3); ("Q", 3); ("K", 512); ("R", 3); ("S", 3); ("C", 512) ]);
        (* ResNet-50 first layer: 230x230x3 image, 64 7x7 filters, stride 2 *)
        ("2",
         [ ("N", 1); ("P", 112); ("Q", 112); ("K", 64); ("R", 7); ("S", 7); ("C", 3) ]) ];
    test_params =
      [ ("N", 2); ("P", 3); ("Q", 2); ("K", 3); ("R", 3); ("S", 2); ("C", 2) ];
    gen; reference = Some reference }

(* --- MCC_Caps --- *)

let caps_img_shape params =
  let e name = p params name in
  [| e "N"; (2 * e "P") + e "R" - 1; (2 * e "Q") + e "S" - 1; e "C"; e "M"; e "M" |]

let mcc_caps =
  let make params =
    let e name = p params name in
    let m = e "M" in
    let nest =
      List.fold_right
        (fun (d, extent) acc -> D.for_ d extent acc)
        [ ("n", e "N"); ("p", e "P"); ("q", e "Q"); ("k", e "K"); ("mi", m); ("mj", m);
          ("r", e "R"); ("s", e "S"); ("c", e "C"); ("mk", m) ]
        (D.body
           [ D.assign "res"
               Expr.[ idx "n"; idx "p"; idx "q"; idx "k"; idx "mi"; idx "mj" ]
               Expr.(
                 read "img"
                   [ idx "n"; (int 2 * idx "p") + idx "r"; (int 2 * idx "q") + idx "s";
                     idx "c"; idx "mi"; idx "mk" ]
                 * read "flt" [ idx "k"; idx "r"; idx "s"; idx "c"; idx "mk"; idx "mj" ]) ])
    in
    D.make ~name:"MCC_Caps"
      ~out:[ D.buffer "res" Scalar.Fp32 ]
      ~inp:
        [ D.buffer ~shape:(caps_img_shape params) "img" Scalar.Fp32;
          D.buffer "flt" Scalar.Fp32 ]
      ~combine_ops:
        [ Combine.cc; Combine.cc; Combine.cc; Combine.cc; Combine.cc; Combine.cc;
          Combine.pw fadd; Combine.pw fadd; Combine.pw fadd; Combine.pw fadd ]
      nest
  in
  let gen params ~seed =
    let e name = p params name in
    let rng = Rng.create seed in
    Buffer.env_of_list
      [ Workload.float_buffer "img" rng (caps_img_shape params);
        Workload.float_buffer "flt" rng
          [| e "K"; e "R"; e "S"; e "C"; e "M"; e "M" |] ]
  in
  let reference params env =
    let e name = p params name in
    let m = e "M" in
    let out =
      Dense.of_fn Scalar.Fp32 [| e "N"; e "P"; e "Q"; e "K"; m; m |] (fun idx ->
          let acc = ref 0.0 in
          for r = 0 to e "R" - 1 do
            for s = 0 to e "S" - 1 do
              for c = 0 to e "C" - 1 do
                for mk = 0 to m - 1 do
                  acc :=
                    !acc
                    +. (get_f env "img"
                          [| idx.(0); (2 * idx.(1)) + r; (2 * idx.(2)) + s; c; idx.(4); mk |]
                       *. get_f env "flt" [| idx.(3); r; s; c; mk; idx.(5) |])
                done
              done
            done
          done;
          Scalar.f32 !acc)
    in
    Buffer.env_add env (Buffer.of_dense "res" out)
  in
  { Workload.wl_name = "MCC_Caps"; domain = "Deep Learning"; basic_type = "fp32"; make;
    paper_inputs =
      [ ("1",
         [ ("N", 16); ("P", 112); ("Q", 112); ("K", 64); ("R", 7); ("S", 7); ("C", 3);
           ("M", 4) ]);
        ("2",
         [ ("N", 1); ("P", 112); ("Q", 112); ("K", 67); ("R", 7); ("S", 7); ("C", 3);
           ("M", 4) ]) ];
    test_params =
      [ ("N", 1); ("P", 2); ("Q", 2); ("K", 2); ("R", 2); ("S", 2); ("C", 2); ("M", 2) ];
    gen; reference = Some reference }
