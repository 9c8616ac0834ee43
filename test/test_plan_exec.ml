(* Properties of the plan-driven executor.

   The executor walks Plan.t — the same IR the cost model and code
   generators consume — so these tests pin the contract that matters
   after the refactor: any legal schedule computes the reference result;
   layer misfits are rejected rather than masked; fast-path dispatch is
   counted; the chunk budget follows the pool size. *)

module W = Mdh_workloads.Workload
module Catalog = Mdh_workloads.Catalog
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Schedule = Mdh_lowering.Schedule
module Lower = Mdh_lowering.Lower
module Plan = Mdh_lowering.Plan
module Device = Mdh_machine.Device
module Rng = Mdh_support.Rng
open Mdh_runtime

let check = Alcotest.check
let with_pool f = Pool.with_pool ~num_domains:3 f
let cpu = Device.xeon6140_like
let gpu = Device.a100_like

let outputs_agree ~bitwise md a b =
  List.for_all
    (fun (o : Md_hom.output) ->
      let da = Buffer.data (Buffer.env_find a o.Md_hom.out_name) in
      let db = Buffer.data (Buffer.env_find b o.Md_hom.out_name) in
      if bitwise then Dense.equal da db
      else Dense.approx_equal ~rel:1e-4 ~abs:1e-5 da db)
    md.Md_hom.outputs

(* --- random legal schedules (pinned seed: the draws never change) --- *)

let random_schedule rng md dev =
  let rank = Md_hom.rank md in
  let tile_sizes =
    Array.init rank (fun d ->
        let opts = Lower.tile_options md ~dim:d in
        List.nth opts (Rng.int rng (List.length opts)))
  in
  let parallel_dims =
    List.filter (fun _ -> Rng.bool rng) (Lower.parallelisable_dims md)
  in
  let used_layers =
    if parallel_dims = [] then []
    else List.init (1 + Rng.int rng (Array.length dev.Device.layers)) Fun.id
  in
  let sched = { Schedule.tile_sizes; parallel_dims; used_layers } in
  match Schedule.legal md dev sched with Ok () -> Some sched | Error _ -> None

let test_random_schedules_match_reference () =
  (* every catalogue workload x pinned random legal schedules: the
     default dispatch computes Semantics.exec's result within the
     repository's float tolerance *)
  let rng = Rng.create 2026 in
  with_pool (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          let env = w.W.gen w.W.test_params ~seed:7 in
          let expected = Semantics.exec md env in
          let tried = ref 0 in
          let draws = ref 0 in
          while !tried < 4 && !draws < 50 do
            incr draws;
            match random_schedule rng md cpu with
            | None -> ()
            | Some sched ->
              incr tried;
              (match Exec.run ~device:cpu pool md sched env with
              | Error e ->
                Alcotest.failf "%s %s: %s" w.W.wl_name
                  (Schedule.to_string sched) e
              | Ok got ->
                check Alcotest.bool
                  (Printf.sprintf "%s under %s" w.W.wl_name
                     (Schedule.to_string sched))
                  true
                  (outputs_agree ~bitwise:false md got expected))
          done;
          check Alcotest.bool (w.W.wl_name ^ ": legal draws found") true
            (!tried > 0))
        Catalog.all)

(* --- layer misfits are errors, not silently masked (satellite 2) --- *)

let test_used_layers_rejected_not_masked () =
  with_pool (fun pool ->
      let w = Option.get (Catalog.find "matvec") in
      let md = W.to_md_hom w w.W.test_params in
      let env = w.W.gen w.W.test_params ~seed:3 in
      let sched =
        { (Schedule.sequential md) with
          Schedule.parallel_dims = [ 0 ];
          Schedule.used_layers = [ 0; 1 ] }
      in
      (* the host pool device has a single layer: layer 1 must be rejected
         (the pre-refactor executor silently cleared used_layers instead) *)
      (match Exec.run pool md sched env with
      | Ok _ -> Alcotest.fail "host pool accepted a two-layer schedule"
      | Error msg ->
        check Alcotest.bool "error names the layer" true
          (let lower = String.lowercase_ascii msg in
           let contains s sub =
             let n = String.length sub in
             let rec go i =
               i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
             in
             go 0
           in
           contains lower "layer"));
      (* the same schedule is fine on a device that really has two layers *)
      match Exec.run ~device:cpu pool md sched env with
      | Ok got ->
        check Alcotest.bool "tuned device accepted" true
          (outputs_agree ~bitwise:false md got (Semantics.exec md env))
      | Error e -> Alcotest.failf "cpu device rejected: %s" e)

(* --- the chunk budget follows the pool size --- *)

let test_chunk_budget_per_pool_size () =
  let w = Option.get (Catalog.find "matmul") in
  let md = W.to_md_hom w w.W.test_params in
  let env = w.W.gen w.W.test_params ~seed:13 in
  let sched =
    { (Schedule.sequential md) with
      Schedule.parallel_dims = Lower.parallelisable_dims md }
  in
  let expected = Semantics.exec md env in
  List.iter
    (fun workers ->
      Pool.with_pool ~num_domains:(workers - 1) (fun pool ->
          let budget = Pool.chunk_budget pool in
          check Alcotest.int "two chunks per worker" (2 * workers) budget;
          match Exec.run pool md sched env with
          | Error e -> Alcotest.failf "chunk budget %d: %s" budget e
          | Ok got ->
            check Alcotest.bool
              (Printf.sprintf "chunk budget %d" budget)
              true
              (outputs_agree ~bitwise:false md got expected)))
    [ 1; 2; 8 ]

let suite =
  let tc = Alcotest.test_case in
  ( "plan-exec",
    [ tc "random legal schedules match reference" `Slow
        test_random_schedules_match_reference;
      tc "used_layers rejected, not masked" `Quick
        test_used_layers_rejected_not_masked;
      tc "chunk budget per pool size" `Quick test_chunk_budget_per_pool_size ] )
