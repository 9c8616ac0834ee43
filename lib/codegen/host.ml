module Scalar = Mdh_tensor.Scalar
module Shape = Mdh_tensor.Shape
module Md_hom = Mdh_core.Md_hom

type bundle = {
  kernel_file : string;
  kernel_source : string;
  host_file : string;
  host_source : string;
}

let elems shape = Shape.num_elements shape

let is_record = function Scalar.Record _ -> true | _ -> false

(* deterministic LCG fill so generated programs are reproducible; record
   buffers are filled bytewise *)
let fill_stmt ctx name ty count =
  if is_record ty then
    Printf.sprintf
      "  { unsigned char *p = (unsigned char *)%s;\n\
      \    for (size_t b = 0; b < %d * sizeof(%s); b++) { mdh_seed = mdh_seed * 1103515245u + 12345u; p[b] = (unsigned char)(mdh_seed >> 16); } }"
      name count (C_like.c_type ctx ty)
  else
    let cast =
      match ty with
      | Scalar.Fp32 | Fp64 ->
        Printf.sprintf "(%s)((mdh_seed >> 16) & 1023) / 512.0 - 1.0" (C_like.c_type ctx ty)
      | _ -> Printf.sprintf "(%s)((mdh_seed >> 16) & 15)" (C_like.c_type ctx ty)
    in
    Printf.sprintf
      "  for (size_t e = 0; e < %d; e++) { mdh_seed = mdh_seed * 1103515245u + 12345u; %s[e] = %s; }"
      count name cast

let checksum_stmt ctx name ty count =
  if is_record ty then
    Printf.sprintf
      "  { const unsigned char *p = (const unsigned char *)%s;\n\
      \    for (size_t b = 0; b < %d * sizeof(%s); b++) mdh_checksum += (double)p[b]; }"
      name count (C_like.c_type ctx ty)
  else
    Printf.sprintf "  for (size_t e = 0; e < %d; e++) mdh_checksum += (double)%s[e];"
      count name

let cuda_host (md : Md_hom.t) ctx ~kernel_source ~groups ~items =
  let b = Buffer.create 4096 in
  let line fmt = Format.kasprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "%s" kernel_source;
  line "#include <cstdio>";
  line "#include <cstdlib>";
  line "";
  line "#define MDH_CHECK(call) do { cudaError_t mdh_e = (call); \\";
  line "  if (mdh_e != cudaSuccess) { fprintf(stderr, \"%%s:%%d: %%s\\n\", __FILE__, __LINE__, cudaGetErrorString(mdh_e)); exit(1); } } while (0)";
  line "";
  line "int main(void)";
  line "{";
  line "  unsigned int mdh_seed = 1u;";
  line "  double mdh_checksum = 0.0;";
  let all =
    List.map (fun (i : Md_hom.input) -> (i.inp_name, i.inp_ty, elems i.inp_shape, true)) md.inputs
    @ List.map (fun (o : Md_hom.output) -> (o.out_name, o.out_ty, elems o.out_shape, false)) md.outputs
  in
  List.iter
    (fun (name, ty, count, is_input) ->
      let cty = C_like.c_type ctx ty in
      line "  %s *h_%s = (%s *)malloc(%d * sizeof(%s));" cty name cty count cty;
      if is_input then line "%s" (fill_stmt ctx ("h_" ^ name) ty count);
      line "  %s *d_%s = NULL;" cty name;
      line "  MDH_CHECK(cudaMalloc(&d_%s, %d * sizeof(%s)));" name count cty;
      if is_input then
        line "  MDH_CHECK(cudaMemcpy(d_%s, h_%s, %d * sizeof(%s), cudaMemcpyHostToDevice));"
          name name count cty;
      line "")
    all;
  line "  cudaEvent_t mdh_start, mdh_stop;";
  line "  MDH_CHECK(cudaEventCreate(&mdh_start));";
  line "  MDH_CHECK(cudaEventCreate(&mdh_stop));";
  line "  MDH_CHECK(cudaEventRecord(mdh_start));";
  let args =
    String.concat ", "
      (List.map (fun (o : Md_hom.output) -> "d_" ^ o.out_name) md.outputs
      @ List.map (fun (i : Md_hom.input) -> "d_" ^ i.inp_name) md.inputs)
  in
  line "  %s<<<%d, %d>>>(%s);" (Kernel.kernel_name md) groups items args;
  line "  MDH_CHECK(cudaEventRecord(mdh_stop));";
  line "  MDH_CHECK(cudaEventSynchronize(mdh_stop));";
  line "  float mdh_ms = 0.0f;";
  line "  MDH_CHECK(cudaEventElapsedTime(&mdh_ms, mdh_start, mdh_stop));";
  List.iter
    (fun (o : Md_hom.output) ->
      let cty = C_like.c_type ctx o.out_ty in
      let count = elems o.out_shape in
      line "  MDH_CHECK(cudaMemcpy(h_%s, d_%s, %d * sizeof(%s), cudaMemcpyDeviceToHost));"
        o.out_name o.out_name count cty;
      line "%s" (checksum_stmt ctx ("h_" ^ o.out_name) o.out_ty count))
    md.outputs;
  line "  printf(\"%s: %%0.3f ms, checksum %%0.6f\\n\", mdh_ms, mdh_checksum);" md.hom_name;
  List.iter
    (fun (name, _, _, _) ->
      line "  MDH_CHECK(cudaFree(d_%s));" name;
      line "  free(h_%s);" name)
    all;
  line "  return 0;";
  line "}";
  Buffer.contents b

let opencl_host (md : Md_hom.t) ctx ~kernel_file ~groups ~items =
  let b = Buffer.create 4096 in
  let line fmt = Format.kasprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  line "/* OpenCL host program for %s, generated by the MDH pipeline reproduction." md.hom_name;
  line "   Loads the kernel from %S at run time. */" kernel_file;
  line "#define CL_TARGET_OPENCL_VERSION 120";
  line "#include <CL/cl.h>";
  line "#include <stdio.h>";
  line "#include <stdlib.h>";
  line "";
  let struct_defs = C_like.struct_defs ctx in
  if struct_defs <> "" then line "%s" struct_defs;
  line "#define MDH_CHECK(err) do { if ((err) != CL_SUCCESS) { fprintf(stderr, \"%%s:%%d: OpenCL error %%d\\n\", __FILE__, __LINE__, (int)(err)); exit(1); } } while (0)";
  line "";
  line "static char *mdh_read_file(const char *path, size_t *len)";
  line "{";
  line "  FILE *f = fopen(path, \"rb\");";
  line "  if (!f) { fprintf(stderr, \"cannot open %%s\\n\", path); exit(1); }";
  line "  fseek(f, 0, SEEK_END); *len = (size_t)ftell(f); fseek(f, 0, SEEK_SET);";
  line "  char *src = (char *)malloc(*len + 1);";
  line "  if (fread(src, 1, *len, f) != *len) { fprintf(stderr, \"short read\\n\"); exit(1); }";
  line "  src[*len] = 0; fclose(f);";
  line "  return src;";
  line "}";
  line "";
  line "int main(void)";
  line "{";
  line "  unsigned int mdh_seed = 1u;";
  line "  double mdh_checksum = 0.0;";
  line "  cl_int mdh_err = CL_SUCCESS;";
  line "  cl_platform_id platform; MDH_CHECK(clGetPlatformIDs(1, &platform, NULL));";
  line "  cl_device_id device;";
  line "  MDH_CHECK(clGetDeviceIDs(platform, CL_DEVICE_TYPE_ALL, 1, &device, NULL));";
  line "  cl_context context = clCreateContext(NULL, 1, &device, NULL, NULL, &mdh_err); MDH_CHECK(mdh_err);";
  line "  cl_command_queue queue = clCreateCommandQueue(context, device, CL_QUEUE_PROFILING_ENABLE, &mdh_err); MDH_CHECK(mdh_err);";
  line "  size_t mdh_src_len; char *mdh_src = mdh_read_file(%S, &mdh_src_len);" kernel_file;
  line "  cl_program program = clCreateProgramWithSource(context, 1, (const char **)&mdh_src, &mdh_src_len, &mdh_err); MDH_CHECK(mdh_err);";
  line "  MDH_CHECK(clBuildProgram(program, 1, &device, \"\", NULL, NULL));";
  line "  cl_kernel kernel = clCreateKernel(program, %S, &mdh_err); MDH_CHECK(mdh_err);" (Kernel.kernel_name md);
  line "";
  let all =
    List.map (fun (o : Md_hom.output) -> (o.out_name, o.out_ty, elems o.out_shape, false)) md.outputs
    @ List.map (fun (i : Md_hom.input) -> (i.inp_name, i.inp_ty, elems i.inp_shape, true)) md.inputs
  in
  List.iteri
    (fun arg_index (name, ty, count, is_input) ->
      let cty = C_like.c_type ctx ty in
      line "  %s *h_%s = (%s *)malloc(%d * sizeof(%s));" cty name cty count cty;
      if is_input then
        line "%s" (fill_stmt ctx ("h_" ^ name) ty count);
      line "  cl_mem d_%s = clCreateBuffer(context, %s, %d * sizeof(%s), %s, &mdh_err); MDH_CHECK(mdh_err);"
        name
        (if is_input then "CL_MEM_READ_ONLY | CL_MEM_COPY_HOST_PTR" else "CL_MEM_WRITE_ONLY")
        count cty
        (if is_input then "h_" ^ name else "NULL");
      line "  MDH_CHECK(clSetKernelArg(kernel, %d, sizeof(cl_mem), &d_%s));" arg_index name;
      line "")
    all;
  line "  size_t mdh_local = %d;" items;
  line "  size_t mdh_global = (size_t)%d * %d;" groups items;
  line "  cl_event mdh_ev;";
  line "  MDH_CHECK(clEnqueueNDRangeKernel(queue, kernel, 1, NULL, &mdh_global, &mdh_local, 0, NULL, &mdh_ev));";
  line "  MDH_CHECK(clWaitForEvents(1, &mdh_ev));";
  line "  cl_ulong mdh_t0, mdh_t1;";
  line "  MDH_CHECK(clGetEventProfilingInfo(mdh_ev, CL_PROFILING_COMMAND_START, sizeof(mdh_t0), &mdh_t0, NULL));";
  line "  MDH_CHECK(clGetEventProfilingInfo(mdh_ev, CL_PROFILING_COMMAND_END, sizeof(mdh_t1), &mdh_t1, NULL));";
  List.iter
    (fun (o : Md_hom.output) ->
      let cty = C_like.c_type ctx o.out_ty in
      let count = elems o.out_shape in
      line "  MDH_CHECK(clEnqueueReadBuffer(queue, d_%s, CL_TRUE, 0, %d * sizeof(%s), h_%s, 0, NULL, NULL));"
        o.out_name count cty o.out_name;
      line "%s" (checksum_stmt ctx ("h_" ^ o.out_name) o.out_ty count))
    md.outputs;
  line "  printf(\"%s: %%0.3f ms, checksum %%0.6f\\n\", (mdh_t1 - mdh_t0) * 1e-6, mdh_checksum);" md.hom_name;
  List.iter (fun (name, _, _, _) -> line "  clReleaseMemObject(d_%s); free(h_%s);" name name) all;
  line "  free(mdh_src);";
  line "  return 0;";
  line "}";
  Buffer.contents b

let generate dialect (md : Md_hom.t) dev sched =
  match Kernel.generate dialect md dev sched with
  | Error _ as e -> e
  | Ok kernel_source ->
    let ctx = C_like.prepare md in
    (* Kernel.generate just validated this exact (md, dev, sched) *)
    match Mdh_lowering.Plan.build md dev sched with
    | Error msg -> Error (Kernel.Illegal_schedule msg)
    | Ok plan ->
    let groups, items = Kernel.launch_config plan in
    let base = Kernel.kernel_name md in
    if dialect == Kernel.cuda then
      Ok
        { kernel_file = base ^ ".cu";
          kernel_source;
          host_file = base ^ ".cu";
          host_source = cuda_host md ctx ~kernel_source ~groups ~items }
    else
      let kernel_file = base ^ ".cl" in
      Ok
        { kernel_file;
          kernel_source;
          host_file = base ^ "_host.c";
          host_source = opencl_host md ctx ~kernel_file ~groups ~items }
