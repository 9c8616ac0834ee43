(* Stencils with the MDH directive: Jacobi 3D (the Figure 3 case study, a
   generalisation of Listing 10's Jacobi1D). Stencils are reduction-free —
   every dimension combines with cc — and the multiple shifted accesses per
   buffer are the #ACC counting of Listing 14.

     dune exec examples/stencil_jacobi.exe *)

module W = Mdh_workloads.Workload
module Buffer = Mdh_tensor.Buffer
module Md_hom = Mdh_core.Md_hom

let () =
  let params = [ ("N", 16) ] in
  let w = Mdh_workloads.Stencils.jacobi_3d in
  let md = W.to_md_hom w params in

  (* the transformation found the 7 shifted accesses of the 7-point stencil *)
  let grid = Option.get (Md_hom.find_input md "grid") in
  Printf.printf "input %s: %d accesses, inferred shape %s (padded by the radius)\n"
    grid.Md_hom.inp_name
    (List.length grid.Md_hom.accesses)
    (Mdh_support.Util.string_of_dims grid.Md_hom.inp_shape);
  let c = Md_hom.characteristics md in
  Printf.printf "reduction dims: %d, accesses injective: %s\n\n"
    c.Md_hom.n_reduction_dims
    (match c.Md_hom.injective_accesses with
    | Some false -> "no (elements shared between neighbouring points)"
    | Some true -> "yes"
    | None -> "undecided");

  (* run several sweeps on the host pool, each sweep checked against the
     hand-written oracle *)
  let env = w.W.gen params ~seed:11 in
  (match w.W.reference with
  | Some oracle ->
    let got = Mdh_runtime.Exec.run_seq md env in
    let expected = oracle params env in
    Printf.printf "sweep matches 7-point oracle: %b\n"
      (Mdh_tensor.Dense.approx_equal ~rel:1e-4 ~abs:1e-5
         (Buffer.data (Buffer.env_find got "next"))
         (Buffer.data (Buffer.env_find expected "next")))
  | None -> ());

  (* the executor on a larger grid, on the default pool: the sequential
     schedule against one that parallelises every dimension it can *)
  let n = 64 in
  let md_n = W.to_md_hom w [ ("N", n) ] in
  let env_n = w.W.gen [ ("N", n) ] ~seed:5 in
  Mdh_runtime.Pool.with_pool (fun pool ->
      let run sched =
        match
          Mdh_support.Util.time_it (fun () -> Mdh_runtime.Exec.run pool md_n sched env_n)
        with
        | Ok out, t -> (Buffer.data (Buffer.env_find out "next"), t)
        | Error e, _ -> failwith e
      in
      let seq = Mdh_lowering.Schedule.sequential md_n in
      let next_seq, t_seq = run seq in
      let next_par, t_par =
        run { seq with parallel_dims = Mdh_lowering.Lower.parallelisable_dims md_n }
      in
      Printf.printf
        "Exec.run of a %d^3 sweep: sequential %.4fs, parallel %.4fs (%.1fx on %d \
         workers), parallel matches sequential: %b\n\n"
        n t_seq t_par (t_seq /. t_par) (Mdh_runtime.Pool.num_workers pool)
        (Mdh_tensor.Dense.approx_equal ~rel:1e-5 ~abs:1e-6 next_seq next_par));

  (* how the tuner schedules the stencil on each device *)
  let md_big = W.to_md_hom w (List.assoc "1" w.W.paper_inputs) in
  List.iter
    (fun dev ->
      match Mdh_atf.Tuner.tune md_big dev Mdh_lowering.Cost.tuned_codegen with
      | Ok t ->
        Format.printf "%s: %a (estimated %.3g s)@."
          dev.Mdh_machine.Device.device_name Mdh_lowering.Schedule.pp
          t.Mdh_atf.Tuner.schedule t.Mdh_atf.Tuner.estimated_s
      | Error e -> failwith e)
    [ Mdh_machine.Device.a100_like; Mdh_machine.Device.xeon6140_like ]
