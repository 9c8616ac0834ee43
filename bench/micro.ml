(* Wall-clock micro-benchmarks (Bechamel): one Test.make per paper
   table/figure domain, timing the specialised float kernels on the host —
   sequential vs tiled vs pool-parallel — to demonstrate for real that the
   mechanisms the cost model credits (tiling, row and scan
   parallelisation) behave as modelled. Dot has no parallel kernel: it
   runs sequentially on every pool. Measurement methodology
   follows Hoefler & Belli (Section 5.1): Bechamel collects samples until
   its quota and fits execution time by ordinary least squares. *)

open Bechamel
open Toolkit
module Kernels = Mdh_runtime.Kernels
module Pool = Mdh_runtime.Pool
module Rng = Mdh_support.Rng

let floats seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> Rng.float rng 2.0 -. 1.0)

let tests pool =
  let dot_n = 1 lsl 20 in
  let x = floats 1 dot_n and y = floats 2 dot_n in
  let mv_m = 1024 and mv_k = 1024 in
  let mat = floats 3 (mv_m * mv_k) and vec = floats 4 mv_k in
  let mm = 256 in
  let a = floats 5 (mm * mm) and b = floats 6 (mm * mm) in
  let scan_n = 1 lsl 20 in
  let xs = floats 7 scan_n in
  let jn = 48 in
  let grid = floats 8 (jn * jn * jn) in
  [ Test.make_grouped ~name:"dot(2^20)"
      [ Test.make ~name:"seq" (Staged.stage (fun () -> Kernels.dot_seq x y)) ];
    Test.make_grouped ~name:"matvec(1024x1024)"
      [ Test.make ~name:"seq"
          (Staged.stage (fun () -> Kernels.matvec_seq ~m:mv_m ~k:mv_k mat vec));
        Test.make ~name:"par"
          (Staged.stage (fun () -> Kernels.matvec_par pool ~m:mv_m ~k:mv_k mat vec)) ];
    Test.make_grouped ~name:"matmul(256^3)"
      [ Test.make ~name:"naive"
          (Staged.stage (fun () -> Kernels.matmul_seq ~m:mm ~n:mm ~k:mm a b));
        Test.make ~name:"tiled"
          (Staged.stage (fun () -> Kernels.matmul_tiled ~tile:32 ~m:mm ~n:mm ~k:mm a b));
        Test.make ~name:"tiled+par"
          (Staged.stage (fun () -> Kernels.matmul_par pool ~tile:32 ~m:mm ~n:mm ~k:mm a b)) ];
    Test.make_grouped ~name:"scan(2^20)"
      [ Test.make ~name:"seq" (Staged.stage (fun () -> Kernels.scan_seq xs));
        Test.make ~name:"par" (Staged.stage (fun () -> Kernels.scan_par pool xs)) ];
    Test.make_grouped ~name:"jacobi3d(48^3)"
      [ Test.make ~name:"seq" (Staged.stage (fun () -> Kernels.jacobi3d_seq ~n:jn grid));
        Test.make ~name:"par" (Staged.stage (fun () -> Kernels.jacobi3d_par pool ~n:jn grid)) ] ]

let run () =
  Mdh_reports.Report.section "Wall-clock micro-benchmarks (host machine, Bechamel OLS ns/run)";
  Pool.with_pool (fun pool ->
      let ols =
        Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
      in
      let instances = Instance.[ monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
      let all_tests = Test.make_grouped ~name:"micro" (tests pool) in
      let raw = Benchmark.all cfg instances all_tests in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let table = Mdh_support.Table.create ~headers:[ "benchmark"; "time/run"; "r^2" ] in
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
      List.iter
        (fun (name, ols) ->
          let estimate =
            match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols with Some r -> Printf.sprintf "%.3f" r | None -> "-"
          in
          Mdh_support.Table.add_row table
            [ name; Mdh_reports.Report.time_str (estimate *. 1e-9); r2 ])
        (List.sort compare rows);
      Mdh_support.Table.print table;
      Printf.printf "\npool workers: %d\n" (Pool.num_workers pool))
