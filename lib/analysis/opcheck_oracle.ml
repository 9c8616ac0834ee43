module Scalar = Mdh_tensor.Scalar
module Combine = Mdh_combine.Combine
module Rewrite = Mdh_rewrite.Rewrite

(* memoized per (seed, type, operator key): the report describes the
   implementation (declarations are judged elsewhere). The key is the
   operator's name and, when it has one, its printed body, so two
   operators that share a name but not a body get a report each. The
   table is shared by pool domains and mdhd handler threads, hence a
   locked Memo; verification is pure, so a rare duplicate compute under
   concurrent misses is harmless. *)
let memo : Opcheck.report Mdh_support.Memo.t =
  Mdh_support.Memo.create "analysis.opcheck_oracle"

let report ?(seed = 42) ~ty fn =
  let key =
    Printf.sprintf "%d/%s/%s" seed (Scalar.ty_to_string ty) (Combine.key fn)
  in
  Mdh_support.Memo.find_or_add memo key (fun () -> Opcheck.verify ~seed ~ty fn)

let verdict_of_outcome ~evaluations = function
  | Opcheck.Verified _ -> Rewrite.Proved { evaluations }
  | Opcheck.Counterexample w -> Rewrite.Refuted { witness = w }
  | Opcheck.Untestable msg -> Rewrite.Unknown msg

let oracle ?(seed = 42) () =
  { Rewrite.oracle_name = Printf.sprintf "opcheck-%d" seed;
    prove =
      (fun ty fn prop ->
        let r = report ~seed ~ty fn in
        let evaluations = r.Opcheck.evaluations in
        match prop with
        | Rewrite.Associative -> verdict_of_outcome ~evaluations r.Opcheck.associativity
        | Rewrite.Commutative -> verdict_of_outcome ~evaluations r.Opcheck.commutativity)
  }
