(* Linear algebra with the MDH directive: MatMul (Listing 9) on the square
   and the tall-skinny deep-learning shape, demonstrating (i) the MDH
   decomposition law that justifies tiling, (ii) the shape-sensitivity
   of fixed vendor kernels vs auto-tuned MDH code, and (iii) the executor
   running MatMul 384^3 from its plan, sequential and parallel.

     dune exec examples/linear_algebra.exe *)

module W = Mdh_workloads.Workload
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Device = Mdh_machine.Device
module Common = Mdh_baselines.Common

let () =
  (* The decomposition law, executably: evaluating MatMul tile-by-tile and
     recombining partial results with (cc, cc, pw(add)) gives the same
     result for every tiling — the property every schedule relies on. *)
  let params = [ ("I", 24); ("J", 20); ("K", 28) ] in
  let md = W.to_md_hom Mdh_workloads.Linalg.matmul params in
  let env = Mdh_workloads.Linalg.matmul.W.gen params ~seed:7 in
  let reference = Mdh_core.Semantics.reference md env in
  List.iter
    (fun tiles ->
      let tiled = Mdh_core.Semantics.eval_tiled md env ~tile_sizes:tiles in
      Printf.printf "tiles %-10s -> recombined result matches: %b\n"
        (Mdh_support.Util.string_of_dims tiles)
        (Dense.approx_equal ~rel:1e-4 ~abs:1e-5
           (Buffer.data (Buffer.env_find tiled "C"))
           (Buffer.data (Buffer.env_find reference "C"))))
    [ [| 8; 8; 8 |]; [| 5; 7; 9 |]; [| 24; 1; 28 |] ];
  print_newline ();

  (* Shape sensitivity: compare auto-tuned MDH against the vendor-library
     model on the square 1024^3 MatMul and on the paper's deep-learning
     shapes (1x1000x2048 GEMM, the transposed GEMM, the batched GEMM). *)
  List.iter
    (fun ((w : W.t), inp) ->
      let md = W.to_md_hom w (List.assoc inp w.W.paper_inputs) in
      List.iter
        (fun dev ->
          let mdh =
            match Mdh_baselines.Registry.mdh.Common.compile ~tuned:true md dev with
            | Ok o -> Common.seconds o
            | Error f -> failwith (Common.failure_to_string f)
          in
          match Mdh_baselines.Vendor.system.Common.compile ~tuned:false md dev with
          | Ok o ->
            Printf.printf "%-9s inp%s on %-14s: MDH %-9s %-7s %-9s -> MDH is %.2fx\n"
              w.W.wl_name inp dev.Device.device_name
              (Printf.sprintf "%.3gs" mdh) o.Common.system
              (Printf.sprintf "%.3gs" (Common.seconds o))
              (Common.seconds o /. mdh)
          | Error f -> Printf.printf "%s: %s\n" w.W.wl_name (Common.failure_to_string f))
        [ Device.a100_like; Device.xeon6140_like ])
    [ (Mdh_workloads.Linalg.matmul, "1"); (Mdh_workloads.Linalg.matmul, "2");
      (Mdh_workloads.Linalg.matmul_t, "1"); (Mdh_workloads.Linalg.bmatmul, "1") ];
  print_newline ();

  (* The executor at 384^3 on the default pool: the sequential schedule
     against one that parallelises every dimension it can *)
  let params = [ ("I", 384); ("J", 384); ("K", 384) ] in
  let md = W.to_md_hom Mdh_workloads.Linalg.matmul params in
  let env = Mdh_workloads.Linalg.matmul.W.gen params ~seed:3 in
  Mdh_runtime.Pool.with_pool (fun pool ->
      let run sched =
        match Mdh_support.Util.time_it (fun () -> Mdh_runtime.Exec.run pool md sched env) with
        | Ok out, t -> (Buffer.data (Buffer.env_find out "C"), t)
        | Error e, _ -> failwith e
      in
      let seq = Mdh_lowering.Schedule.sequential md in
      let c_seq, t_seq = run seq in
      let c_par, t_par =
        run { seq with parallel_dims = Mdh_lowering.Lower.parallelisable_dims md }
      in
      Printf.printf
        "Exec.run matmul 384^3: sequential %.4fs, parallel %.4fs (%.1fx on %d \
         workers), parallel matches sequential: %b\n"
        t_seq t_par (t_seq /. t_par) (Mdh_runtime.Pool.num_workers pool)
        (Dense.approx_equal ~rel:1e-5 ~abs:1e-6 c_seq c_par))
