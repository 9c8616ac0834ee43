module Scalar = Mdh_tensor.Scalar
module Dense = Mdh_tensor.Dense
module Buffer = Mdh_tensor.Buffer
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module D = Mdh_directive.Directive
module Rng = Mdh_support.Rng

let p = Workload.p

let features = [ "f0"; "f1"; "f2"; "f3" ]
let scale_w = [ 0.5; 2.0; 1.25; 0.75 ]

let point_ty = Scalar.Record (List.map (fun f -> (f, Scalar.Fp64)) features)

let assign_record_ty =
  Scalar.Record
    [ ("cluster_id", Scalar.Int64); ("score", Scalar.Fp64);
      ("dist", Scalar.Fp64) ]

(* selection of the minimum under a strict total order: scaled score, then
   raw distance, then lower cluster id. Every record field participates in
   the order, so a tie means the operands are equal — the selection is
   associative AND commutative, like {!Prl.prl_best}. *)
let nearest =
  let fields f = Expr.(field (var "lhs") f, field (var "rhs") f) in
  let s_l, s_r = fields "score" and d_l, d_r = fields "dist" in
  let id_l, id_r = fields "cluster_id" in
  let lhs = Expr.var "lhs" and rhs = Expr.var "rhs" in
  Combine.of_body ~name:"kmeans_nearest" ~ty:assign_record_ty ~associative:true
    ~commutative:true
    Expr.(
      if_ (s_l < s_r) lhs
        (if_ (s_l > s_r) rhs
           (if_ (d_l < d_r) lhs (if_ (d_l > d_r) rhs (if_ (id_l <= id_r) lhs rhs)))))

(* The oracle's selection, written by hand rather than taken from
   [nearest], so that the oracle checks the operator's body instead of
   sharing it. *)
let oracle_nearest lhs rhs =
  let s v = Scalar.to_float (Scalar.field v "score") in
  let d v = Scalar.to_float (Scalar.field v "dist") in
  let id v = Scalar.to_int (Scalar.field v "cluster_id") in
  if s lhs < s rhs then lhs
  else if s lhs > s rhs then rhs
  else if d lhs < d rhs then lhs
  else if d lhs > d rhs then rhs
  else if id lhs <= id rhs then lhs
  else rhs

let distance_exprs () =
  (* dist = sum of squared per-feature differences; score = the same sum
     with inverse-variance feature scaling. Written naively — each squared
     difference spells out its subtraction twice, and the two sums repeat
     the squares — which is exactly the redundancy `mdhc optimize`'s
     common-subexpression rule is expected to eliminate. *)
  let diff f =
    Expr.(field (read "pts" [ idx "n" ]) f - field (read "ctr" [ idx "k" ]) f)
  in
  let sq f = Expr.(diff f * diff f) in
  let dist =
    List.fold_left (fun acc f -> Expr.(acc + sq f)) (Expr.f64 0.0) features
  in
  let score =
    List.fold_left2
      (fun acc f w -> Expr.(acc + (f64 w * sq f)))
      (Expr.f64 0.0) features scale_w
  in
  (dist, score)

let make params =
  let n = p params "N" and k = p params "K" in
  let dist, score = distance_exprs () in
  D.make ~name:"KMeans"
    ~out:[ D.buffer "assign" assign_record_ty ]
    ~inp:[ D.buffer "pts" point_ty; D.buffer "ctr" point_ty ]
    ~combine_ops:[ Combine.cc; Combine.pw nearest ]
    (D.for_ "n" n
       (D.for_ "k" k
          (D.body
             [ D.let_stmt "d" dist;
               D.let_stmt "s" score;
               D.assign "assign" [ Expr.idx "n" ]
                 (Expr.MkRecord
                    [ ("cluster_id", Expr.(cast Scalar.Int64 (idx "k")));
                      ("score", Expr.var "s");
                      ("dist", Expr.var "d") ]) ])))

let random_point rng =
  Scalar.R (List.map (fun f -> (f, Scalar.F64 (Rng.float rng 2.0 -. 1.0))) features)

let gen params ~seed =
  let n = p params "N" and k = p params "K" in
  let rng = Rng.create seed in
  let pts = Dense.of_fn point_ty [| n |] (fun _ -> random_point rng) in
  let ctr = Dense.of_fn point_ty [| k |] (fun _ -> random_point rng) in
  Buffer.env_of_list [ Buffer.of_dense "pts" pts; Buffer.of_dense "ctr" ctr ]

(* same operation order as the directive body, so fp64 results are
   bit-identical to the interpreter's *)
let score_point pt c =
  let diff f = Scalar.to_float (Scalar.field pt f) -. Scalar.to_float (Scalar.field c f) in
  let dist =
    List.fold_left (fun acc f -> let d = diff f in acc +. (d *. d)) 0.0 features
  in
  let score =
    List.fold_left2
      (fun acc f w -> let d = diff f in acc +. (w *. (d *. d)))
      0.0 features scale_w
  in
  (dist, score)

let reference params env =
  let n = p params "N" and k = p params "K" in
  let pts = Buffer.data (Buffer.env_find env "pts") in
  let ctr = Buffer.data (Buffer.env_find env "ctr") in
  let out =
    Dense.of_fn assign_record_ty [| n |] (fun idx ->
        let pt = Dense.get pts [| idx.(0) |] in
        let best = ref None in
        for c = 0 to k - 1 do
          let dist, score = score_point pt (Dense.get ctr [| c |]) in
          let candidate =
            Scalar.R
              [ ("cluster_id", Scalar.i64 c); ("score", Scalar.F64 score);
                ("dist", Scalar.F64 dist) ]
          in
          match !best with
          | None -> best := Some candidate
          | Some b -> best := Some (oracle_nearest b candidate)
        done;
        Option.get !best)
  in
  Buffer.env_add env (Buffer.of_dense "assign" out)

let kmeans =
  { Workload.wl_name = "KMeans"; domain = "Data Mining";
    basic_type = "{int64, fp64, fp64}"; make;
    paper_inputs =
      [ ("1", [ ("N", 1 lsl 17); ("K", 1 lsl 8) ]);
        ("2", [ ("N", 1 lsl 15); ("K", 1 lsl 10) ]) ];
    test_params = [ ("N", 7); ("K", 5) ]; gen; reference = Some reference }
