type stats = {
  flops : float;
  level_bytes : float array;
  link_bytes : float;
  launches : int;
  serial_ops : float;
}

type efficiency = {
  parallel_fraction : float;
  compute_efficiency : float;
  bandwidth_efficiency : float;
}

let ideal =
  { parallel_fraction = 1.0; compute_efficiency = 1.0; bandwidth_efficiency = 1.0 }

type breakdown = {
  compute_s : float;
  memory_s : float array;
  link_s : float;
  serial_s : float;
  overhead_s : float;
  total_s : float;
}

let estimate (dev : Device.t) eff stats =
  let clamp01 ~what x =
    if x <= 0.0 || x > 1.0 then
      invalid_arg (Printf.sprintf "Roofline.estimate: %s must be in (0,1], got %g" what x)
    else x
  in
  let pf = clamp01 ~what:"parallel_fraction" eff.parallel_fraction in
  let ce = clamp01 ~what:"compute_efficiency" eff.compute_efficiency in
  let be = clamp01 ~what:"bandwidth_efficiency" eff.bandwidth_efficiency in
  let effective_gflops = dev.peak_gflops *. pf *. ce in
  let compute_s = stats.flops /. (effective_gflops *. 1e9) in
  if Array.length stats.level_bytes <> Array.length dev.mem then
    invalid_arg "Roofline.estimate: stats levels do not match device memory levels";
  let memory_s =
    Array.mapi
      (fun i bytes -> bytes /. (dev.mem.(i).Device.bandwidth_gbs *. be *. 1e9))
      stats.level_bytes
  in
  let link_s =
    match dev.link_gbs with
    | Some gbs when stats.link_bytes > 0.0 -> stats.link_bytes /. (gbs *. 1e9)
    | _ -> 0.0
  in
  (* serial work runs on a single unit at scalar throughput: one unit's share
     of the device peak *)
  let single_unit_gflops =
    dev.peak_gflops /. float_of_int (Device.total_parallelism dev)
  in
  let serial_s = stats.serial_ops /. (single_unit_gflops *. ce *. 1e9) in
  let overhead_s = float_of_int stats.launches *. dev.launch_overhead_s in
  let roof = Array.fold_left Float.max compute_s memory_s in
  { compute_s; memory_s; link_s; serial_s; overhead_s;
    total_s = roof +. serial_s +. link_s +. overhead_s }
