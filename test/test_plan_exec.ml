(* Properties of the plan-driven executor.

   The executor walks Plan.t — the same IR the cost model and code
   generators consume — so these tests pin the contract that matters
   after the refactor: any legal schedule computes the reference result;
   with the fast path and the specializer off, the walker reproduces the
   pre-refactor single-dim chunked executor bit-for-bit on the default
   schedules; layer misfits are rejected rather than masked; fast-path
   dispatch is counted. *)

module W = Mdh_workloads.Workload
module Catalog = Mdh_workloads.Catalog
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Combine = Mdh_combine.Combine
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
  (* every catalogue workload x pinned random legal schedules: the plan
     walker (fast path included) computes Semantics.exec's result within
     the repository's float tolerance *)
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

(* --- bit-identity with the pre-refactor executor --- *)

(* the executor this refactor replaced: split the lowest-indexed parallel
   dimension into [workers * 2] ceil-sized chunks, evaluate each box with
   the reference interpreter, recombine the partials in chunk order *)
let old_exec pool md (sched : Schedule.t) env =
  match sched.Schedule.parallel_dims with
  | [] -> Ok (Exec.run_seq md env)
  | dims ->
    let d = List.fold_left min (List.hd dims) dims in
    let extent = md.Md_hom.sizes.(d) in
    let workers = Pool.num_workers pool in
    let n = max 1 (min extent (workers * 2)) in
    let chunk = (extent + n - 1) / n in
    let ranges =
      List.filter
        (fun (_, sz) -> sz > 0)
        (List.init n (fun i -> (i * chunk, min chunk (extent - (i * chunk)))))
    in
    let partials =
      Pool.run_in_parallel pool
        (Array.of_list
           (List.map
              (fun (lo_d, sz_d) () ->
                List.map
                  (fun (o : Md_hom.output) ->
                    let lo = Array.make (Md_hom.rank md) 0 in
                    let sz = Array.copy md.Md_hom.sizes in
                    lo.(d) <- lo_d;
                    sz.(d) <- sz_d;
                    Semantics.eval_box md env o ~lo ~sz)
                  md.Md_hom.outputs)
              ranges))
    in
    let combined =
      match Array.to_list partials with
      | [] -> assert false
      | first :: rest ->
        List.fold_left
          (fun acc p ->
            List.map2
              (fun a b ->
                Combine.combine_partials md.Md_hom.combine_ops.(d) ~dim:d a b)
              acc p)
          first rest
    in
    let env' = Semantics.alloc_outputs md env in
    List.iter2
      (fun (o : Md_hom.output) part -> Semantics.write_output env' md o part)
      md.Md_hom.outputs combined;
    Ok env'

let test_bit_identical_to_old_executor () =
  with_pool (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          let env = w.W.gen w.W.test_params ~seed:11 in
          (* untiled schedule: the old executor never honoured tiles, so
             bit-comparing under tiles =  extents isolates the chunking *)
          let sched =
            { (Schedule.sequential md) with
              Schedule.parallel_dims = Lower.parallelisable_dims md }
          in
          let old_env =
            match old_exec pool md sched env with
            | Ok e -> e
            | Error e -> Alcotest.failf "%s old: %s" w.W.wl_name e
          in
          match Exec.run ~fastpath:false ~specialize:false pool md sched env with
          | Error e -> Alcotest.failf "%s new: %s" w.W.wl_name e
          | Ok new_env ->
            check Alcotest.bool (w.W.wl_name ^ " bit-identical") true
              (outputs_agree ~bitwise:true md new_env old_env))
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

(* --- fast-path dispatch (satellite 6) --- *)

let test_fastpath_hit_counted () =
  let c = Mdh_obs.Metrics.counter "runtime.kernels.fastpath_hits" in
  with_pool (fun pool ->
      let w = Option.get (Catalog.find "dot") in
      let md = W.to_md_hom w w.W.test_params in
      let env = w.W.gen w.W.test_params ~seed:5 in
      let sched =
        { (Schedule.sequential md) with
          Schedule.parallel_dims = Lower.parallelisable_dims md }
      in
      let before = Mdh_obs.Metrics.value c in
      (match Exec.run pool md sched env with
      | Error e -> Alcotest.fail e
      | Ok got ->
        check Alcotest.bool "fast-path result correct" true
          (outputs_agree ~bitwise:false md got (Semantics.exec md env)));
      check Alcotest.int "hit counted" (before + 1) (Mdh_obs.Metrics.value c);
      (* ~fastpath:false must not dispatch *)
      (match Exec.run ~fastpath:false pool md sched env with
      | Error e -> Alcotest.fail e
      | Ok _ -> ());
      check Alcotest.int "disabled: no hit" (before + 1)
        (Mdh_obs.Metrics.value c);
      (* a workload outside the kernel library never matches: matmul^t has
         a transposed access pattern the matmul matcher must refuse *)
      let wt = Option.get (Catalog.find "matmul^t") in
      let mdt = W.to_md_hom wt wt.W.test_params in
      let envt = wt.W.gen wt.W.test_params ~seed:5 in
      let schedt =
        { (Schedule.sequential mdt) with
          Schedule.parallel_dims = Lower.parallelisable_dims mdt }
      in
      (match Exec.run pool mdt schedt envt with
      | Error e -> Alcotest.fail e
      | Ok got ->
        check Alcotest.bool "generic path correct" true
          (outputs_agree ~bitwise:false mdt got (Semantics.exec mdt envt)));
      check Alcotest.int "no false match" (before + 1)
        (Mdh_obs.Metrics.value c))

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
          match
            Exec.run ~fastpath:false ~specialize:false pool md sched env
          with
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
      tc "bit-identical to pre-refactor executor" `Quick
        test_bit_identical_to_old_executor;
      tc "used_layers rejected, not masked" `Quick
        test_used_layers_rejected_not_masked;
      tc "fastpath hits counted" `Quick test_fastpath_hit_counted;
      tc "chunk budget per pool size" `Quick test_chunk_budget_per_pool_size ] )
