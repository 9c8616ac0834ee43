module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Plan = Mdh_lowering.Plan

let host_device pool =
  let workers = Pool.num_workers pool in
  { Mdh_machine.Device.device_name = Printf.sprintf "host:%dw" workers;
    kind = Mdh_machine.Device.Cpu;
    layers = [| { layer_name = "workers"; max_units = workers } |];
    peak_gflops = 1.0;
    mem = [| { level_name = "RAM"; capacity_bytes = max_int; bandwidth_gbs = 1.0 } |];
    link_gbs = None;
    launch_overhead_s = 0.0;
    saturation_units = 1;
    min_bw_fraction = 1.0;
    compute_saturation_units = 1 }

module Trace = Mdh_obs.Trace
module Metrics = Mdh_obs.Metrics

let m_runs = Metrics.counter "runtime.exec.runs"
let m_fallbacks = Metrics.counter "runtime.exec.fallbacks"

let run_seq md env =
  Trace.with_span ~cat:"runtime" "exec.seq"
    ~args:[ ("hom", md.Md_hom.hom_name) ]
    (fun () -> Semantics.exec md env)

(* [f ()], which runs the reference, or the [Error] it raises on inputs
   that do not match the computation ([Semantics.Semantic_error]);
   nothing else it raises is caught *)
let run_reference f = try Ok (f ()) with Semantics.Semantic_error reason -> Error reason

let run_with_plan ?fastpath:_ ?(specialize = true) pool plan (md : Md_hom.t) env =
  if Array.exists (fun s -> s = 0) md.Md_hom.sizes then
    (* an empty iteration space has no work to distribute: it is pinned
       to the sequential semantics, whatever the plan *)
    run_reference (fun () -> run_seq md env)
  else begin
    Metrics.incr m_runs;
    Trace.with_span ~cat:"runtime" "exec.run"
      ~args:[ ("hom", md.Md_hom.hom_name) ]
      (fun () ->
        if not specialize then run_reference (fun () -> run_seq md env)
        else
          (* the specializer attributes its own compile/run phases *)
          match Specializer.run pool plan md env with
          | Ok env -> Ok env
          | Error reason ->
            run_reference (fun () ->
                let env =
                  Trace.with_span ~cat:"runtime" "exec.reference"
                    ~args:[ ("hom", md.Md_hom.hom_name); ("reason", reason) ]
                    (fun () -> Semantics.exec md env)
                in
                Metrics.incr m_fallbacks;
                env))
  end

let run ?device ?specialize pool (md : Md_hom.t) sched env =
  if Array.exists (fun s -> s = 0) md.Md_hom.sizes then
    run_reference (fun () -> run_seq md env)
  else
    let dev = match device with Some d -> d | None -> host_device pool in
    match Plan.build md dev sched with
    | Error _ as e -> e
    | Ok plan -> run_with_plan ?specialize pool plan md env
