module Scalar = Mdh_tensor.Scalar
module Dense = Mdh_tensor.Dense
module Buffer = Mdh_tensor.Buffer
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module D = Mdh_directive.Directive
module Rng = Mdh_support.Rng

let p = Workload.p

let certain_measure = 14

let attrs = [ "name"; "birth"; "sex"; "postal" ]
let agree_w = [ 3.0; 2.5; 0.7; 2.0 ]
let disagree_w = [ -1.5; -1.0; -0.3; -0.8 ]

let person_ty = Scalar.Record (List.map (fun a -> (a, Scalar.Int32)) attrs)

let match_record_ty =
  Scalar.Record
    [ ("match_id", Scalar.Int64); ("match_weight", Scalar.Fp64);
      ("id_measure", Scalar.Int32) ]

(* selection of the maximum under a strict total order: weight, then
   certainty, then lower id. Every record field participates in the order, so
   a tie means the operands are equal — the selection is associative AND
   commutative (the property verifier in Mdh_analysis.Opcheck confirms both) *)
let prl_best =
  let fields f = Expr.(field (var "lhs") f, field (var "rhs") f) in
  let w_l, w_r = fields "match_weight" and m_l, m_r = fields "id_measure" in
  let id_l, id_r = fields "match_id" in
  let lhs = Expr.var "lhs" and rhs = Expr.var "rhs" in
  Combine.of_body ~name:"prl_best" ~ty:match_record_ty ~associative:true
    ~commutative:true
    Expr.(
      if_ (w_l > w_r) lhs
        (if_ (w_l < w_r) rhs
           (if_ (m_l > m_r) lhs (if_ (m_l < m_r) rhs (if_ (id_l <= id_r) lhs rhs)))))

(* The oracle's selection, written by hand rather than taken from
   [prl_best], so that the oracle checks the operator's body instead of
   sharing it. *)
let oracle_best lhs rhs =
  let w v = Scalar.to_float (Scalar.field v "match_weight") in
  let m v = Scalar.to_int (Scalar.field v "id_measure") in
  let id v = Scalar.to_int (Scalar.field v "match_id") in
  if w lhs > w rhs then lhs
  else if w lhs < w rhs then rhs
  else if m lhs > m rhs then lhs
  else if m lhs < m rhs then rhs
  else if id lhs <= id rhs then lhs
  else rhs

let scoring_exprs () =
  (* weight = sum of per-attribute log-weights; agreements = #equal fields *)
  let agree a = Expr.(field (read "newp" [ idx "n" ]) a = field (read "db" [ idx "i" ]) a) in
  let weight =
    List.fold_left2
      (fun acc a (wa, wd) -> Expr.(acc + if_ (agree a) (f64 wa) (f64 wd)))
      (Expr.f64 0.0) attrs
      (List.combine agree_w disagree_w)
  in
  let agreements =
    List.fold_left
      (fun acc a -> Expr.(acc + if_ (agree a) (int 1) (int 0)))
      (Expr.int 0) attrs
  in
  (weight, agreements)

let make params =
  let n = p params "N" and i = p params "I" in
  let weight, agreements = scoring_exprs () in
  D.make ~name:"PRL"
    ~out:[ D.buffer "match" match_record_ty ]
    ~inp:[ D.buffer "newp" person_ty; D.buffer "db" person_ty ]
    ~combine_ops:[ Combine.cc; Combine.pw prl_best ]
    (D.for_ "n" n
       (D.for_ "i" i
          (D.body
             [ D.let_stmt "w" weight;
               D.let_stmt "agr" agreements;
               D.assign "match" [ Expr.idx "n" ]
                 (Expr.MkRecord
                    [ ("match_id", Expr.(cast Scalar.Int64 (idx "i")));
                      ("match_weight", Expr.var "w");
                      ("id_measure",
                       Expr.(
                         if_ (var "agr" = int (List.length attrs))
                           (int certain_measure) (var "agr"))) ]) ])))

let random_person rng =
  Scalar.R
    [ ("name", Scalar.i32 (Rng.int rng 5000));
      ("birth", Scalar.i32 (Rng.int_in rng 1920 2010));
      ("sex", Scalar.i32 (Rng.int rng 2));
      ("postal", Scalar.i32 (Rng.int rng 10000)) ]

let corrupt rng person =
  List.fold_left
    (fun acc a ->
      if Rng.float rng 1.0 < 0.1 then
        Scalar.set_field acc a (Scalar.i32 (Rng.int rng 5000))
      else acc)
    person attrs

let gen params ~seed =
  let n = p params "N" and i = p params "I" in
  let rng = Rng.create seed in
  let db = Dense.of_fn person_ty [| i |] (fun _ -> random_person rng) in
  (* ~30% of the new records are noisy duplicates of registry entries *)
  let newp =
    Dense.of_fn person_ty [| n |] (fun _ ->
        if Rng.float rng 1.0 < 0.3 then corrupt rng (Dense.get db [| Rng.int rng i |])
        else random_person rng)
  in
  Buffer.env_of_list [ Buffer.of_dense "newp" newp; Buffer.of_dense "db" db ]

let score_pair newp db =
  let agree a = Scalar.equal (Scalar.field newp a) (Scalar.field db a) in
  let weight =
    List.fold_left2
      (fun acc a (wa, wd) -> acc +. (if agree a then wa else wd))
      0.0 attrs
      (List.combine agree_w disagree_w)
  in
  let agreements = List.length (List.filter agree attrs) in
  (weight, if agreements = List.length attrs then certain_measure else agreements)

let reference params env =
  let n = p params "N" and i = p params "I" in
  let newp = Buffer.data (Buffer.env_find env "newp") in
  let db = Buffer.data (Buffer.env_find env "db") in
  let out =
    Dense.of_fn match_record_ty [| n |] (fun idx ->
        let np = Dense.get newp [| idx.(0) |] in
        let best = ref None in
        for r = 0 to i - 1 do
          let weight, measure = score_pair np (Dense.get db [| r |]) in
          let candidate =
            Scalar.R
              [ ("match_id", Scalar.i64 r); ("match_weight", Scalar.F64 weight);
                ("id_measure", Scalar.i32 measure) ]
          in
          match !best with
          | None -> best := Some candidate
          | Some b -> best := Some (oracle_best b candidate)
        done;
        Option.get !best)
  in
  Buffer.env_add env (Buffer.of_dense "match" out)

let prl =
  { Workload.wl_name = "PRL"; domain = "Data Mining";
    basic_type = "{int64, fp64, int32, ...}"; make;
    paper_inputs =
      [ ("1", [ ("N", 1 lsl 10); ("I", 1 lsl 15) ]);
        ("2", [ ("N", 1 lsl 15); ("I", 1 lsl 15) ]) ];
    test_params = [ ("N", 9); ("I", 17) ]; gen; reference = Some reference }
