(* Structural tests for the CUDA/OpenCL kernel generators. The kernels
   cannot be compiled here (no CUDA/OpenCL toolchain), so the tests assert
   the structure the schedule mandates: index decomposition, tile loops,
   tree reductions, struct definitions, scan accumulators, and the
   generator's documented restrictions. *)

module W = Mdh_workloads.Workload
module Device = Mdh_machine.Device
module Lower = Mdh_lowering.Lower
module Schedule = Mdh_lowering.Schedule
open Mdh_codegen

let check = Alcotest.check
let gpu = Device.a100_like
let cpu = Device.xeon6140_like

let generate_exn dialect w params dev =
  let md = W.to_md_hom w params in
  let sched = Lower.mdh_default md dev in
  match Kernel.generate dialect md dev sched with
  | Ok src -> src
  | Error e -> Alcotest.failf "codegen: %a" Kernel.pp_error e

let assert_contains src fragments =
  List.iter
    (fun f ->
      check Alcotest.bool (Printf.sprintf "contains %S" f) true (Test_util.contains src f))
    fragments

let test_cuda_matvec_tree_reduction () =
  let src = generate_exn Kernel.cuda Mdh_workloads.Linalg.matvec [ ("I", 64); ("K", 32) ] gpu in
  assert_contains src
    [ "__global__ void mdh_matvec"; "blockIdx.x"; "threadIdx.x"; "__shared__";
      "__syncthreads();"; "mdh_s >>= 1"; "w[(i)] = mdh_sh_w[0];";
      "float *w, const float *M, const float *v" ]

let test_opencl_dialect_markers () =
  let src = generate_exn Kernel.opencl Mdh_workloads.Linalg.matvec [ ("I", 64); ("K", 32) ] cpu in
  assert_contains src
    [ "__kernel void mdh_matvec"; "get_group_id(0)"; "get_local_id(0)";
      "barrier(CLK_LOCAL_MEM_FENCE);"; "__global float *w" ];
  check Alcotest.bool "no cuda markers" false (Test_util.contains src "blockIdx")

let test_dot_single_group () =
  (* dot has no cc dims: one group, pure tree reduction *)
  let src = generate_exn Kernel.cuda Mdh_workloads.Linalg.dot [ ("K", 4096) ] gpu in
  assert_contains src [ "if (mdh_g >= 1) return;"; "r[(0)] = mdh_sh_r[0];" ]

let test_index_decomposition () =
  let src =
    generate_exn Kernel.opencl Mdh_workloads.Stencils.gaussian_2d
      [ ("N", 16); ("M", 16) ] cpu
  in
  (* 2D cc space linearised then decomposed by div/mod *)
  assert_contains src [ "mdh_g / 16"; "mdh_g % 16" ]

let test_stencil_is_pure_map () =
  let src =
    generate_exn Kernel.opencl Mdh_workloads.Stencils.jacobi_3d [ ("N", 8) ] cpu
  in
  check Alcotest.bool "no reduction machinery" false (Test_util.contains src "mdh_part");
  (* padded row-major addressing of the 10^3 input *)
  assert_contains src [ "* 10 +" ]

let test_prl_structs_and_custom_combiner () =
  let src = generate_exn Kernel.cuda Mdh_workloads.Prl.prl [ ("N", 16); ("I", 32) ] gpu in
  assert_contains src
    [ "struct mdh_rec_0 {"; "long long match_id;"; "double match_weight;";
      "mdh_combine_prl_best("; "user-defined customising function";
      "struct mdh_rec_1 *match" ]

let test_mbbs_scan () =
  let src = generate_exn Kernel.opencl Mdh_workloads.Mbbs.mbbs [ ("I", 16); ("J", 8) ] cpu in
  assert_contains src [ "/* inclusive scan */"; "(i == 0) ?" ];
  check Alcotest.bool "no tree reduction" false (Test_util.contains src "__local")

let test_sequential_schedule_tiles () =
  (* a sequential schedule with small tiles must show cache-tile loop pairs *)
  let md = W.to_md_hom Mdh_workloads.Linalg.matmul [ ("I", 64); ("J", 64); ("K", 64) ] in
  let sched =
    { Schedule.tile_sizes = [| 16; 16; 16 |]; parallel_dims = []; used_layers = [] }
  in
  match Kernel.generate Kernel.cuda md gpu sched with
  | Error e -> Alcotest.failf "codegen: %a" Kernel.pp_error e
  | Ok src ->
    assert_contains src
      [ "/* cache tile */"; "i_tile"; "j_tile"; "k_tile"; "mdh_min(i_tile + 16, 64)" ]

let test_all_workloads_generate () =
  List.iter
    (fun (w : W.t) ->
      let md = W.to_md_hom w w.W.test_params in
      List.iter
        (fun (dialect, dev) ->
          let sched = Lower.mdh_default md dev in
          match Kernel.generate dialect md dev sched with
          | Ok src ->
            check Alcotest.bool (w.W.wl_name ^ " nonempty") true (String.length src > 200)
          | Error e -> Alcotest.failf "%s: %a" w.W.wl_name Kernel.pp_error e)
        [ (Kernel.cuda, gpu); (Kernel.opencl, cpu) ])
    Mdh_workloads.Catalog.all

let test_illegal_schedule_rejected () =
  let md = W.to_md_hom Mdh_workloads.Linalg.matvec [ ("I", 8); ("K", 8) ] in
  let bad = { Schedule.tile_sizes = [| 8 |]; parallel_dims = []; used_layers = [] } in
  match Kernel.generate Kernel.cuda md gpu bad with
  | Error (Kernel.Illegal_schedule _) -> ()
  | _ -> Alcotest.fail "expected Illegal_schedule"

let test_deterministic () =
  let gen () = generate_exn Kernel.cuda Mdh_workloads.Ccsdt.ccsdt
      Mdh_workloads.Ccsdt.ccsdt.W.test_params gpu
  in
  check Alcotest.string "same source" (gen ()) (gen ())

let test_schedule_in_header () =
  let md = W.to_md_hom Mdh_workloads.Linalg.matvec [ ("I", 64); ("K", 32) ] in
  let sched =
    { Schedule.tile_sizes = [| 16; 8 |]; parallel_dims = [ 0 ]; used_layers = [ 0; 1 ] }
  in
  match Kernel.generate Kernel.cuda md gpu sched with
  | Ok src -> assert_contains src [ "tiles=16x8 parallel=[0] layers=[0,1]" ]
  | Error e -> Alcotest.failf "codegen: %a" Kernel.pp_error e

(* --- host-program generation --- *)

let host_exn dialect w params dev =
  let md = W.to_md_hom w params in
  let sched = Lower.mdh_default md dev in
  match Host.generate dialect md dev sched with
  | Ok bundle -> bundle
  | Error e -> Alcotest.failf "host: %a" Kernel.pp_error e

let test_cuda_host_bundle () =
  let bundle = host_exn Kernel.cuda Mdh_workloads.Linalg.matvec [ ("I", 64); ("K", 32) ] gpu in
  check Alcotest.string "single .cu file" "mdh_matvec.cu" bundle.Host.host_file;
  assert_contains bundle.Host.host_source
    [ "int main(void)"; "cudaMalloc"; "cudaMemcpyHostToDevice"; "cudaMemcpyDeviceToHost";
      "mdh_matvec<<<64, 32>>>(d_w, d_M, d_v);"; "cudaEventElapsedTime"; "checksum";
      "__global__ void mdh_matvec" ]

let test_opencl_host_bundle () =
  let bundle = host_exn Kernel.opencl Mdh_workloads.Linalg.matmul
      [ ("I", 16); ("J", 16); ("K", 16) ] cpu
  in
  check Alcotest.string "kernel file" "mdh_matmul.cl" bundle.Host.kernel_file;
  check Alcotest.string "host file" "mdh_matmul_host.c" bundle.Host.host_file;
  assert_contains bundle.Host.host_source
    [ "clGetPlatformIDs"; "clCreateProgramWithSource"; "clEnqueueNDRangeKernel";
      "clSetKernelArg(kernel, 0, sizeof(cl_mem), &d_C)";
      "\"mdh_matmul.cl\""; "CL_PROFILING_COMMAND_END" ];
  (* the kernel itself stays in the separate .cl source *)
  check Alcotest.bool "host has no kernel body" false
    (Test_util.contains bundle.Host.host_source "__kernel void")

let test_host_record_buffers () =
  let bundle = host_exn Kernel.cuda Mdh_workloads.Prl.prl [ ("N", 8); ("I", 16) ] gpu in
  (* record buffers are allocated with their struct type and byte-filled *)
  assert_contains bundle.Host.host_source
    [ "struct mdh_rec_0 *h_newp"; "struct mdh_rec_1 *h_match"; "unsigned char *p" ]

let test_host_all_workloads () =
  List.iter
    (fun (w : W.t) ->
      let md = W.to_md_hom w w.W.test_params in
      List.iter
        (fun (dialect, dev) ->
          let sched = Lower.mdh_default md dev in
          match Host.generate dialect md dev sched with
          | Ok bundle ->
            check Alcotest.bool (w.W.wl_name ^ " host nonempty") true
              (String.length bundle.Host.host_source > 400)
          | Error e -> Alcotest.failf "%s: %a" w.W.wl_name Kernel.pp_error e)
        [ (Kernel.cuda, gpu); (Kernel.opencl, cpu) ])
    Mdh_workloads.Catalog.all

(* --- OpenMP-C emission (the Listing 2 shape, and its limits) --- *)

let test_openmp_c_matvec () =
  let md = W.to_md_hom Mdh_workloads.Linalg.matvec [ ("I", 64); ("K", 32) ] in
  match Openmp_c.generate md with
  | Error e -> Alcotest.failf "openmp_c: %a" Kernel.pp_error e
  | Ok src ->
    assert_contains src
      [ "#pragma omp parallel for"; "float sum = 0;";
        "#pragma omp simd reduction(+:sum)"; "sum += "; "w[(i)] = sum;" ];
    check Alcotest.bool "no not-expressible note" false
      (Test_util.contains src "NOT EXPRESSIBLE")

let test_openmp_c_prl_inexpressible () =
  let md = W.to_md_hom Mdh_workloads.Prl.prl [ ("N", 8); ("I", 16) ] in
  match Openmp_c.generate md with
  | Error e -> Alcotest.failf "openmp_c: %a" Kernel.pp_error e
  | Ok src ->
    assert_contains src [ "NOT EXPRESSIBLE"; "prl_best"; "sequentially" ];
    check Alcotest.bool "no reduction clause" false
      (Test_util.contains src "reduction(")

let test_openmp_c_mbbs_scan_inexpressible () =
  let md = W.to_md_hom Mdh_workloads.Mbbs.mbbs [ ("I", 8); ("J", 4) ] in
  match Openmp_c.generate md with
  | Error e -> Alcotest.failf "openmp_c: %a" Kernel.pp_error e
  | Ok src -> assert_contains src [ "NOT EXPRESSIBLE"; "prefix-sum" ]

let test_openmp_c_stencil_plain () =
  let md = W.to_md_hom Mdh_workloads.Stencils.gaussian_2d [ ("N", 8); ("M", 8) ] in
  match Openmp_c.generate md with
  | Error e -> Alcotest.failf "openmp_c: %a" Kernel.pp_error e
  | Ok src ->
    assert_contains src [ "#pragma omp parallel for" ];
    check Alcotest.bool "no accumulator" false (Test_util.contains src "sum")

let test_openmp_c_rejects_multi_reduction () =
  let md = W.to_md_hom Mdh_workloads.Deep_learning.mcc
      Mdh_workloads.Deep_learning.mcc.W.test_params
  in
  match Openmp_c.generate md with
  | Error (Kernel.Unsupported _) -> ()
  | _ -> Alcotest.fail "expected Unsupported for the 3-reduction MCC"

let suite =
  let tc = Alcotest.test_case in
  ( "codegen",
    [ tc "cuda matvec tree reduction" `Quick test_cuda_matvec_tree_reduction;
      tc "opencl dialect markers" `Quick test_opencl_dialect_markers;
      tc "dot single group" `Quick test_dot_single_group;
      tc "index decomposition" `Quick test_index_decomposition;
      tc "stencil pure map" `Quick test_stencil_is_pure_map;
      tc "prl structs and combiner" `Quick test_prl_structs_and_custom_combiner;
      tc "mbbs scan" `Quick test_mbbs_scan;
      tc "sequential schedule tiles" `Quick test_sequential_schedule_tiles;
      tc "all workloads generate" `Quick test_all_workloads_generate;
      tc "illegal schedule rejected" `Quick test_illegal_schedule_rejected;
      tc "deterministic" `Quick test_deterministic;
      tc "schedule in header" `Quick test_schedule_in_header;
      tc "cuda host bundle" `Quick test_cuda_host_bundle;
      tc "opencl host bundle" `Quick test_opencl_host_bundle;
      tc "host record buffers" `Quick test_host_record_buffers;
      tc "host for all workloads" `Quick test_host_all_workloads;
      tc "openmp-c matvec" `Quick test_openmp_c_matvec;
      tc "openmp-c PRL inexpressible" `Quick test_openmp_c_prl_inexpressible;
      tc "openmp-c MBBS scan inexpressible" `Quick test_openmp_c_mbbs_scan_inexpressible;
      tc "openmp-c stencil plain" `Quick test_openmp_c_stencil_plain;
      tc "openmp-c rejects multi-reduction" `Quick test_openmp_c_rejects_multi_reduction ] )
