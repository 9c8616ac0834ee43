(* MBBS (Listing 13): the prefix-sum combine operator ps. Unlike pw, ps
   preserves the reduction dimension's extent: b[i,j] holds the sum of
   column j up to row i. The semantics implements it as a carry-propagating
   combine; the executor runs it from the plan, with the scan as a pass
   over the accumulator after the plan's loops.

     dune exec examples/mbbs_prefix_sum.exe *)

module W = Mdh_workloads.Workload
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Common = Mdh_baselines.Common

let () =
  let params = [ ("I", 8); ("J", 4) ] in
  let w = Mdh_workloads.Mbbs.mbbs in
  let md = W.to_md_hom w params in
  Format.printf "%a@.@." Mdh_directive.Directive.pp (w.W.make params);

  (* ps keeps the dimension: an 8x4 input yields an 8x4 output *)
  Printf.printf "result shape: %s (the ps dimension keeps its extent)\n\n"
    (Mdh_support.Util.string_of_dims (Mdh_core.Md_hom.result_shape md));

  let env = w.W.gen params ~seed:6 in
  let out = Mdh_runtime.Exec.run_seq md env in
  let b = Buffer.data (Buffer.env_find out "b") in
  print_endline "column prefix sums (b[i,j] = sum of a[0..i, j]):";
  for i = 0 to 7 do
    for j = 0 to 3 do
      Printf.printf "%8.3f" (Mdh_tensor.Scalar.to_float (Dense.get b [| i; j |]))
    done;
    print_newline ()
  done;
  print_newline ();

  (* tile-wise evaluation recombines partial scans with carries *)
  let tiled = Mdh_core.Semantics.eval_tiled md env ~tile_sizes:[| 3; 4 |] in
  Printf.printf "tiled evaluation (3-row tiles, carries propagated): matches = %b\n\n"
    (Dense.approx_equal ~rel:1e-5 ~abs:1e-6 b
       (Buffer.data (Buffer.env_find tiled "b")));

  (* the expressiveness gap: TVM's comm_reducer cannot express ps *)
  (match
     Mdh_baselines.Tvm.system.Common.compile ~tuned:true md
       Mdh_machine.Device.xeon6140_like
   with
  | Error f -> Format.printf "TVM on MBBS: %a@." Common.pp_failure f
  | Ok _ -> print_endline "TVM unexpectedly accepted MBBS");

  (* the executor at a larger size, on the default pool: the sequential
     schedule against one that parallelises every dimension it can *)
  let params = [ ("I", 2048); ("J", 512) ] in
  let md = W.to_md_hom w params in
  let env = w.W.gen params ~seed:9 in
  Mdh_runtime.Pool.with_pool (fun pool ->
      let run sched =
        match Mdh_support.Util.time_it (fun () -> Mdh_runtime.Exec.run pool md sched env) with
        | Ok out, t -> (Buffer.data (Buffer.env_find out "b"), t)
        | Error e, _ -> failwith e
      in
      let seq = Mdh_lowering.Schedule.sequential md in
      let b_seq, t_seq = run seq in
      let b_par, t_par =
        run { seq with parallel_dims = Mdh_lowering.Lower.parallelisable_dims md }
      in
      Printf.printf
        "Exec.run at I=2048 J=512: sequential %.4fs, parallel %.4fs (%.1fx on %d \
         workers), parallel matches sequential: %b\n"
        t_seq t_par (t_seq /. t_par) (Mdh_runtime.Pool.num_workers pool)
        (Dense.approx_equal ~rel:1e-5 ~abs:1e-6 b_seq b_par))
