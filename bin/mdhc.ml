(* mdhc — the MDH directive compiler driver: inspect, validate,
   auto-tune, cost and execute the catalogue's directive programs
   (`mdhc --help` lists the commands, README.md walks through them):

     mdhc tune matmul --device cpu --budget 400 [--parallel --chains 4]
     mdhc run prl --parallel [--backend auto|interp|special|cc]
     mdhc check [matvec] [--strict] [--file examples/mcc.mdh -P N=1 ...] [--json]
     mdhc plan [matvec] [--device cpu] [--digest]
     mdhc tune matmul --remote /tmp/mdh.sock   (via a running mdhd daemon)

   tune, plan, check, optimize and run are Mdh_serve.Op operations: this
   file only parses their arguments and runs them in-process or, with
   --remote, on the daemon — both print through the op's printer. The
   other commands (list, devices, show, compare, codegen, compile,
   profile) are local-only. *)

open Cmdliner

module W = Mdh_workloads.Workload
module Device = Mdh_machine.Device
module Schedule = Mdh_lowering.Schedule
module Cost = Mdh_lowering.Cost
module Common = Mdh_baselines.Common
module Op = Mdh_serve.Op
module Client = Mdh_serve.Client

let or_die = function
  | Ok x -> x
  | Error msg ->
    prerr_endline ("mdhc: " ^ msg);
    exit 1

(* catalogue workload at an input set, for the local-only commands *)
let workload name input =
  let w = or_die (Op.find_workload name) in
  let params = or_die (Op.params_of w input) in
  (w, params, W.to_md_hom w params)

(* --- arguments --- *)

let workload_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
let workload_opt_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let device_arg = Arg.(value & opt string "cpu" & info [ "device"; "d" ] ~docv:"gpu|cpu")
let input_arg = Arg.(value & opt string "1" & info [ "input"; "i" ] ~docv:"1|2|test")
let test_input_arg = Arg.(value & opt string "test" & info [ "input"; "i" ] ~docv:"1|2|test")

let budget_arg = Arg.(value & opt int 400 & info [ "budget"; "b" ] ~docv:"EVALS")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED")
let parallel_arg = Arg.(value & flag & info [ "parallel"; "p" ])

let json_arg what =
  let doc = Printf.sprintf "Emit the %s as JSON on stdout." what in
  Arg.(value & flag & info [ "json" ] ~doc)

let params_arg =
  Arg.(value & opt_all (pair ~sep:'=' string int) [] & info [ "param"; "P" ] ~docv:"NAME=VALUE")

let remote_arg =
  let doc =
    "Send this command to a running mdhd daemon at Unix socket $(docv) \
     instead of executing locally. The daemon's shared caches and tuning \
     database serve the request, and the output is exactly the local \
     command's, wall-clock timings aside ($(b,run --backend cc) is \
     local-only). See docs/SERVING.md for the protocol."
  in
  Arg.(value & opt (some string) None & info [ "remote" ] ~doc ~docv:"SOCK")

let chains_arg =
  let doc =
    "Number of independent annealing chains (seeded SEED, SEED+1, ...) the \
     evaluation budget is split across; with --parallel they run on \
     separate domains. The chain count, not the pool, determines the \
     result."
  in
  Arg.(value & opt int 1 & info [ "chains" ] ~doc ~docv:"K")

let strategy_arg =
  let doc =
    "Search strategy: $(b,auto) (exhaustive when the space fits the budget, \
     annealing otherwise), $(b,exhaustive), $(b,random) or $(b,anneal). \
     Deadline suspension and $(b,--resume) apply to annealing strategies; \
     batch strategies stop at the deadline with their partial best."
  in
  Arg.(
    value
    & opt (enum Op.Tune.strategies) Mdh_atf.Tuner.Auto
    & info [ "strategy" ] ~doc ~docv:"NAME")

let deadline_arg =
  let doc =
    "Wall-clock budget for the search, in seconds. An annealing search \
     that exceeds it suspends to a crash-safe checkpoint and exits with \
     code 3; rerunning with $(b,--resume) continues it bit-identically."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~doc ~docv:"SECS")

let checkpoint_arg =
  let doc =
    "Path of the tuning checkpoint file (default: derived from the tuning \
     request, next to the tuning database)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~doc ~docv:"PATH")

let checkpoint_every_arg =
  let doc = "Evaluations between checkpoint writes, per annealing chain." in
  Arg.(value & opt int 64 & info [ "checkpoint-every" ] ~doc ~docv:"EVALS")

let resume_arg =
  let doc =
    "Continue a previously suspended (or killed) search from its \
     checkpoint. The resumed search replays the exact random draw \
     sequence, so the final schedule is bit-identical to an uninterrupted \
     run; without a matching checkpoint the search simply starts fresh."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let inject_arg =
  let doc =
    "Arm deterministic fault injection for this run (overrides \
     $(b,\\$MDH_FAULTS)). " ^ Mdh_fault.Fault.grammar
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~doc ~docv:"SPEC")

(* MDH_FAULTS is armed in the driver entry point for every command;
   --inject replaces it for one invocation *)
let setup_faults ~inject =
  Option.iter
    (fun spec -> or_die (Result.map_error (( ^ ) "--inject: ") (Mdh_fault.Fault.configure spec)))
    inject

let no_cache_arg =
  let doc =
    "Disable the persistent tuning database and every in-memory cache \
     (cost model, plans, compiled plans, operator verification): recompute \
     everything from scratch and record nothing."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let tuning_db_arg =
  let doc =
    "Path of the persistent tuning database (default: $(b,\\$MDH_TUNING_DB) \
     or $(b,~/.cache/mdh/tuning.db)). Warm runs recall tuned schedules \
     from it instead of searching."
  in
  Arg.(value & opt (some string) None & info [ "tuning-db" ] ~doc ~docv:"PATH")

let no_rewrite_arg =
  let doc =
    "Skip the verified equality-saturation pass: tune/optimize the \
     computation exactly as written, with no expression or plan rewrites."
  in
  Arg.(value & flag & info [ "no-rewrite" ] ~doc)

(* --- observability --- *)

type obs = { trace : string option; metrics : bool; metrics_out : string option }

let obs_arg ~trace =
  let trace_arg =
    let doc =
      "Record hierarchical spans of the tune/search/execute pipeline and \
       write them to $(docv) as Chrome trace_event JSON (open in \
       chrome://tracing or https://ui.perfetto.dev). Tracing never changes \
       results: schedules and outputs are bit-identical with it on or off."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let metrics_arg =
    let doc =
      "After the command, print the observability metrics summary \
       (cost-model cache hits/misses, search evaluations, tuning-db \
       traffic, pool worker utilization) and, when tracing, a per-span \
       timing table. The report goes to stderr (or $(b,--metrics-out)) so \
       it never interleaves with machine-readable stdout."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let metrics_out_arg =
    let doc = "Write the $(b,--metrics) report to $(docv) instead of stderr." in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")
  in
  Term.(
    const (fun trace metrics metrics_out -> { trace; metrics; metrics_out })
    $ (if trace then trace_arg else const None)
    $ metrics_arg $ metrics_out_arg)

(* enable span collection before the command body runs *)
let setup_obs obs = if obs.trace <> None then Mdh_obs.Trace.set_enabled true

(* the registry dump goes to stderr (or a file), never stdout: several
   commands emit machine-readable stdout (SARIF, profile JSON, digests)
   that must stay bit-identical with --metrics on or off *)
let emit_metrics obs parts =
  if obs.metrics || obs.metrics_out <> None then begin
    let body = String.concat "" (List.filter (fun s -> s <> "") parts) in
    match obs.metrics_out with
    | Some path -> Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc body)
    | None -> prerr_string body; flush stderr
  end

let finish_obs obs =
  if obs.metrics then
    emit_metrics obs [ Mdh_obs.Metrics.summary (); Mdh_obs.Trace.summary () ];
  match obs.trace with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path Mdh_obs.Trace.write_chrome;
    Printf.eprintf "trace written to %s\n%!" path

(* --- running an op, in-process or through mdhd --- *)

(* one request, one reply; protocol-level failures (shed, bad request,
   handler error) die with the daemon's stable error code so scripts can
   distinguish overload from misuse. With --metrics the daemon piggybacks
   its registry on the reply, written where the local report would go. *)
let call_remote ~socket ~obs (op : (_, _) Op.t) req =
  let metrics = obs.metrics || obs.metrics_out <> None in
  match Client.request ~metrics ~socket ~op:op.Op.name (op.Op.encode_request req) with
  | Error e -> or_die (Error e)
  | Ok { Client.ok = false; code; error; retry_after_s; _ } ->
    let hint = Option.fold ~none:"" ~some:(Printf.sprintf " (retry after %.2gs)") retry_after_s in
    or_die
      (Error
         (Printf.sprintf "mdhd: %s: %s%s" (Option.value ~default:"error" code)
            (Option.value ~default:"request failed" error) hint))
  | Ok r -> (
    Option.iter (fun m -> emit_metrics obs [ Mdh_serve.Protocol.render m ^ "\n" ]) r.Client.metrics;
    match r.Client.result with
    | None -> or_die (Error "mdhd: malformed reply (no result object)")
    | Some body ->
      or_die (Result.map_error (fun (_, m) -> "mdhd: " ^ m) (op.Op.decode_result body)))

(* run the requests in order, print each through the op's printer, and
   exit with the worst status; only the last remote reply carries the
   daemon's metrics *)
let perform ?(ctx = Op.local ()) ?(view = Op.plain) ~remote ~obs op reqs =
  let last = List.length reqs - 1 in
  let status = ref 0 in
  List.iteri
    (fun i req ->
      let res =
        match remote with
        | None -> or_die (Result.map_error snd (op.Op.run ctx req))
        | Some socket ->
          let obs = if i = last then obs else { obs with metrics = false; metrics_out = None } in
          call_remote ~socket ~obs op req
      in
      let p = op.Op.print view req res in
      print_string p.Op.out;
      prerr_string p.Op.err;
      status := max !status p.Op.status)
    reqs;
  if remote = None then finish_obs obs;
  exit !status

(* --- commands --- *)

let list_cmd =
  let doc = "List the workload catalogue (Figure 3 plus MBBS)." in
  let run () =
    List.iter
      (fun (w : W.t) ->
        Printf.printf "%-12s %-18s inputs: %s\n" w.W.wl_name w.W.domain
          (String.concat ", " (List.map fst w.W.paper_inputs)))
      Mdh_workloads.Catalog.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let devices_cmd =
  let doc = "Describe the modelled devices." in
  let run () =
    Format.printf "%a@.%a@." Device.pp Device.a100_like Device.pp Device.xeon6140_like
  in
  Cmd.v (Cmd.info "devices" ~doc) Term.(const run $ const ())

let show_cmd =
  let doc = "Print a workload's directive, its transformation to the MDH DSL \
             representation, and its Figure 3 characteristics. With --plan, \
             also print the auto-tuned execution plan per device." in
  let plan_arg = Arg.(value & flag & info [ "plan" ]) in
  let run name input plan =
    let w, params, md = workload name input in
    let dir = w.W.make params in
    Format.printf "%a@.@." Mdh_directive.Directive.pp dir;
    Format.printf "%a@." Mdh_core.Md_hom.pp md;
    let c = Mdh_core.Md_hom.characteristics md in
    Printf.printf
      "\ncharacteristics: %dD iteration space, %d reduction dim(s), accesses %s\n"
      c.Mdh_core.Md_hom.iter_space_rank c.Mdh_core.Md_hom.n_reduction_dims
      (match c.Mdh_core.Md_hom.injective_accesses with
      | Some true -> "injective"
      | Some false -> "non-injective"
      | None -> "undecided");
    if plan then
      List.iter
        (fun dev ->
          let t = or_die (Mdh_atf.Tuner.tune md dev Cost.tuned_codegen) in
          let plan = or_die (Mdh_lowering.Plan.build md dev t.Mdh_atf.Tuner.schedule) in
          Format.printf "@.execution plan on %s (parallelism %d):@.%a@."
            dev.Device.device_name (Mdh_lowering.Plan.parallelism plan)
            Mdh_lowering.Plan.pp plan)
        [ Device.a100_like; Device.xeon6140_like ]
  in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ workload_arg $ input_arg $ plan_arg)

let compare_cmd =
  let doc = "Compare every system of the Figure 4 line-up on one workload." in
  let run name device input no_cache tuning_db inject obs =
    setup_faults ~inject;
    Op.setup_cache ~no_cache ~tuning_db;
    setup_obs obs;
    let _, _, md = workload name input in
    let dev = or_die (Op.device_of device) in
    let systems =
      ("MDH", fun () -> Mdh_baselines.Registry.mdh.Common.compile ~tuned:true md dev)
      :: List.map
           (fun (sys : Common.system) ->
             (sys.Common.sys_name, fun () -> sys.Common.compile ~tuned:true md dev))
           (Mdh_baselines.Registry.baselines_for dev)
    in
    (* baseline failures are expected paper results, but the MDH system
       itself failing to compile means the comparison is meaningless:
       report it through the exit code *)
    let mdh_failed = ref false in
    List.iter
      (fun (name, compile) ->
        match compile () with
        | Ok o ->
          Format.printf "%-10s %-14s %.6gs  (%a)@." name o.Common.system
            (Common.seconds o) Schedule.pp o.Common.schedule
        | Error f ->
          if name = "MDH" then mdh_failed := true;
          Format.printf "%-10s %a@." name Common.pp_failure f)
      systems;
    finish_obs obs;
    if !mdh_failed then or_die (Error "the MDH system failed on this workload")
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const run $ workload_arg $ device_arg $ input_arg $ no_cache_arg
      $ tuning_db_arg $ inject_arg $ obs_arg ~trace:true)

let codegen_cmd =
  let doc = "Generate kernel source (CUDA for the GPU device, OpenCL for the \
             CPU device) from a workload's auto-tuned schedule. With --host, \
             emit the complete driver program(s) instead." in
  let host_arg = Arg.(value & flag & info [ "host" ]) in
  let openmp_arg = Arg.(value & flag & info [ "openmp" ]) in
  let run name device input budget host openmp =
    let _, _, md = workload name input in
    let dev = or_die (Op.device_of device) in
    let gen r = or_die (Result.map_error (Format.asprintf "%a" Mdh_codegen.Kernel.pp_error) r) in
    if openmp then begin
      print_string (gen (Mdh_codegen.Openmp_c.generate md));
      exit 0
    end;
    let t = or_die (Mdh_atf.Tuner.tune ~budget md dev Cost.tuned_codegen) in
    let schedule = t.Mdh_atf.Tuner.schedule in
    let dialect =
      match dev.Device.kind with
      | Device.Gpu -> Mdh_codegen.Kernel.cuda
      | Device.Cpu -> Mdh_codegen.Kernel.opencl
    in
    if host then begin
      let bundle = gen (Mdh_codegen.Host.generate dialect md dev schedule) in
      if bundle.Mdh_codegen.Host.kernel_file <> bundle.Mdh_codegen.Host.host_file then begin
        Printf.printf "/* ===== %s ===== */\n" bundle.Mdh_codegen.Host.kernel_file;
        print_string bundle.Mdh_codegen.Host.kernel_source;
        Printf.printf "\n/* ===== %s ===== */\n" bundle.Mdh_codegen.Host.host_file
      end;
      print_string bundle.Mdh_codegen.Host.host_source
    end
    else print_string (gen (Mdh_codegen.Kernel.generate dialect md dev schedule))
  in
  Cmd.v (Cmd.info "codegen" ~doc)
    Term.(
      const run $ workload_arg $ device_arg $ input_arg $ budget_arg $ host_arg
      $ openmp_arg)

let compile_cmd =
  let doc = "Parse a textual #pragma mdh source file, validate it, and print \
             the transformed MDH representation. Parameters are given as \
             NAME=VALUE." in
  let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let run file params =
    let src = In_channel.with_open_text file In_channel.input_all in
    let name = Filename.remove_extension (Filename.basename file) in
    let dir =
      or_die
        (Result.map_error Mdh_pragma.Parser.error_to_string
           (Mdh_pragma.Parser.parse ~name ~params src))
    in
    let md =
      or_die
        (Result.map_error Mdh_directive.Validate.error_to_string
           (Mdh_directive.Transform.to_md_hom dir))
    in
    Format.printf "%a@.@.%a@." Mdh_directive.Directive.pp dir Mdh_core.Md_hom.pp md
  in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run $ file_arg $ params_arg)

let profile_cmd =
  let doc =
    "Execute a workload with the plan-level profiler enabled and report \
     where the wall time went: one row per plan level (addressed by its \
     position in the plan tree, outermost first), the point computation \
     and the write-back, each with its measured share of the enclosing \
     execution span next to the cost model's attribution for the same \
     level — so systematic model/machine disagreements are visible per \
     level, not just in the total. The plan runs on the plan-compiled \
     specializer (the reference semantics has no plan levels to \
     attribute time to), and the command fails, naming the refusal, when \
     the specializer refuses the plan. Its phases (compile vs run) are \
     listed separately. $(b,--json) emits the \
     mdh-profile/1 document instead; $(b,--flame) additionally writes \
     collapsed stacks (one level chain per line, self time in \
     microseconds) for flamegraph.pl / speedscope."
  in
  let schedule_arg =
    let doc =
      "Profile this explicit schedule (mdhc tune's syntax) instead of the \
       default host schedule (the per-device lowering default restricted \
       to the pool's single layer — the same schedule the plan-execution \
       benchmark times)."
    in
    Arg.(value & opt (some string) None & info [ "schedule" ] ~doc ~docv:"SCHED")
  in
  let repeat_arg =
    let doc = "Number of profiled runs to accumulate (same plan digest)." in
    Arg.(value & opt int 3 & info [ "repeat"; "r" ] ~doc ~docv:"N")
  in
  let flame_arg =
    let doc =
      "Write the per-level self times as collapsed flamegraph stacks to \
       $(docv) (workload;digest;L0;...;Lk self_microseconds)."
    in
    Arg.(value & opt (some string) None & info [ "flame" ] ~doc ~docv:"FILE")
  in
  let run name input schedule repeat json flame seed obs =
    setup_obs obs;
    let w, params, md = workload name input in
    let wl = String.lowercase_ascii w.W.wl_name in
    let repeat = max 1 repeat in
    let env = w.W.gen params ~seed in
    Mdh_obs.Profile.set_enabled true;
    Mdh_runtime.Pool.with_pool @@ fun pool ->
    let dev = Mdh_runtime.Exec.host_device pool in
    let sched =
      match schedule with
      | Some s -> or_die (Schedule.of_string s)
      | None ->
        { (Mdh_lowering.Lower.mdh_default md Device.xeon6140_like) with
          Schedule.used_layers = [ 0 ] }
    in
    let plan = or_die (Mdh_lowering.Plan.build md dev sched) in
    let digest = Mdh_lowering.Plan.digest plan in
    (* each run compiles once; a refusal ends the command at the first *)
    let run_once () =
      ignore
        (or_die
           (Result.map_error (fun e -> "specializer: " ^ e)
              (Mdh_runtime.Specializer.run pool plan md env)))
    in
    let (), wall =
      Mdh_support.Util.time_it (fun () ->
          for _ = 1 to repeat do
            run_once ()
          done)
    in
    let module P = Mdh_obs.Profile in
    let entries = P.snapshot digest in
    let find p = List.find_opt (fun e -> e.P.path = p) entries in
    let exec_s = match find "exec" with Some e -> e.P.total_s | None -> 0.0 in
    let model = Cost.level_attribution plan in
    let is_phase e = String.starts_with ~prefix:"phase:" e.P.path in
    let phases = List.filter is_phase entries in
    (* one row per modelled level, then the measured cells the model has
       no counterpart for (write-back, record unpack, post-scan passes)
       with a blank model column: path, label, count, self time, model *)
    let rows =
      List.map
        (fun (s : Cost.level_share) ->
          let count, self_s =
            match find s.Cost.ls_path with
            | Some e -> (e.P.count, e.P.total_s)
            | None -> (0, 0.0)
          in
          (s.Cost.ls_path, s.Cost.ls_label, count, self_s, Some s.Cost.ls_fraction))
        model
      @ List.filter_map
          (fun e ->
            if e.P.path = "exec" || is_phase e
               || List.exists (fun s -> s.Cost.ls_path = e.P.path) model
            then None
            else Some (e.P.path, e.P.path, e.P.count, e.P.total_s, None))
          entries
    in
    let frac s = if exec_s > 0.0 then s /. exec_s else 0.0 in
    let us s = int_of_float (Float.round (s *. 1e6)) in
    (match flame with
    | None -> ()
    | Some path ->
      (* collapsed stacks: plan levels are one nest, so level i's stack
         is the chain L0;..;Li; leaf sits under the full chain and
         unmodelled cells under the root *)
      Out_channel.with_open_text path (fun oc ->
          let clean s =
            String.map (fun c -> if c = ';' || c = '\n' then ',' else c) s
          in
          let chain = ref [ digest; wl ] in
          List.iter
            (fun (path, label, _, self_s, model) ->
              let stack =
                if model = None then [ wl; digest; clean path ]
                else begin
                  chain := (if path = "leaf" then "leaf" else path ^ " " ^ clean label) :: !chain;
                  List.rev !chain
                end
              in
              if us self_s > 0 then
                Printf.fprintf oc "%s %d\n" (String.concat ";" stack) (us self_s))
            rows);
      Printf.eprintf "flamegraph stacks written to %s\n%!" path);
    let esc = Mdh_obs.Json.escape in
    if json then begin
      let row_json (path, label, count, self_s, model) =
        Printf.sprintf
          "    { \"path\": \"%s\", \"label\": \"%s\", \"count\": %d, \
           \"self_s\": %.9f, \"measured_fraction\": %.6f%s }"
          (esc path) (esc label) count self_s (frac self_s)
          (match model with
          | Some f -> Printf.sprintf ", \"model_fraction\": %.6f" f
          | None -> "")
      in
      let phase_json e =
        Printf.sprintf "    { \"path\": \"%s\", \"count\": %d, \"seconds\": %.9f }"
          (esc e.P.path) e.P.count e.P.total_s
      in
      Printf.printf
        "{\n\
        \  \"schema\": \"mdh-profile/1\",\n\
        \  \"workload\": \"%s\",\n\
        \  \"input\": \"%s\",\n\
        \  \"digest\": \"%s\",\n\
        \  \"backend\": \"special\",\n\
        \  \"runs\": %d,\n\
        \  \"wall_s\": %.9f,\n\
        \  \"exec_s\": %.9f,\n\
        \  \"levels\": [\n%s\n  ],\n\
        \  \"phases\": [\n%s\n  ]\n\
         }\n"
        (esc wl) (esc input) digest repeat wall exec_s
        (String.concat ",\n" (List.map row_json rows))
        (String.concat ",\n" (List.map phase_json phases))
    end
    else begin
      Printf.printf "%s (input %s) — digest %s, backend special, %d run(s)\n"
        wl input digest repeat;
      Printf.printf "  %-9s %-52s %13s %7s %7s\n" "path" "plan level"
        "measured" "share" "model";
      List.iter
        (fun (path, label, count, self_s, model) ->
          Printf.printf "  %-9s %-52s %10.3f ms %6.1f%% %s  (×%d)\n" path
            (if String.length label > 52 then String.sub label 0 52 else label)
            (self_s *. 1e3)
            (100.0 *. frac self_s)
            (match model with
            | Some f -> Printf.sprintf "%6.1f%%" (100.0 *. f)
            | None -> "     —")
            count)
        rows;
      Printf.printf "  %-9s %-52s %10.3f ms %6.1f%%\n" "exec"
        "total (CPU time across workers)" (exec_s *. 1e3)
        (if exec_s > 0.0 then 100.0 else 0.0);
      Printf.printf "  wall: %.4fs over %d run(s)\n" wall repeat;
      if phases <> [] then begin
        print_endline "phases:";
        List.iter
          (fun e ->
            Printf.printf "  %-26s %10.3f ms  (×%d)\n"
              (String.sub e.P.path 6 (String.length e.P.path - 6))
              (e.P.total_s *. 1e3) e.P.count)
          phases
      end
    end;
    finish_obs obs
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ workload_arg
      $ test_input_arg $ schedule_arg $ repeat_arg $ json_arg "profile (schema mdh-profile/1)" $ flame_arg
      $ seed_arg $ obs_arg ~trace:true)

let tune_cmd =
  let doc = "Auto-tune a workload's schedule with ATF and report the result. \
             By default the verified rewrite pass saturates the computation \
             first and the search runs over the pruned space; disable with \
             --no-rewrite." in
  let run workload device input budget seed chains strategy deadline_s
      checkpoint checkpoint_every resume parallel no_cache no_rewrite
      tuning_db inject obs remote =
    setup_faults ~inject;
    if remote = None then Op.setup_cache ~no_cache ~tuning_db;
    setup_obs obs;
    perform ~ctx:(Op.local ~parallel ?checkpoint ~checkpoint_every ()) ~remote
      ~obs Op.Tune.op
      [ { Op.Tune.subject = { Op.workload; device; input }; budget; seed;
          chains; strategy; no_rewrite; deadline_s; resume; token = None } ]
  in
  Cmd.v (Cmd.info "tune" ~doc)
    Term.(
      const run $ workload_arg $ device_arg $ input_arg $ budget_arg $ seed_arg
      $ chains_arg $ strategy_arg $ deadline_arg $ checkpoint_arg
      $ checkpoint_every_arg $ resume_arg $ parallel_arg $ no_cache_arg
      $ no_rewrite_arg $ tuning_db_arg $ inject_arg $ obs_arg ~trace:true
      $ remote_arg)

let run_cmd =
  let doc = "Execute a workload (test sizes by default) on the host and check \
             the result against the reference semantics." in
  let backend_arg =
    let doc =
      "Execution backend: $(b,auto) (the plan-compiled specializer, then \
       the reference semantics), $(b,interp) (the \
       reference semantics only, sequential whatever $(b,--parallel) \
       says), $(b,special) (plan-compiled specializer, error if the \
       workload is not specializable), or $(b,cc) (generate the OpenMP C, \
       compile with gcc -O3 -fopenmp, and execute the binary; local only)."
    in
    Arg.(
      value
      & opt (enum Op.Exec_op.backends) Op.Exec_op.Auto
      & info [ "backend" ] ~doc ~docv:"auto|interp|special|cc")
  in
  let run workload input seed parallel backend obs remote =
    if remote <> None && backend = Op.Exec_op.Cc then
      or_die (Error "--backend cc is not available with --remote: mdhd does \
                     not run a C compiler for its clients");
    setup_obs obs;
    perform ~remote ~obs Op.Exec_op.op
      [ { Op.Exec_op.subject = { Op.workload; device = "cpu"; input }; seed;
          parallel; backend } ]
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ workload_arg $ test_input_arg $ seed_arg $ parallel_arg
      $ backend_arg $ obs_arg ~trace:true $ remote_arg)

let check_cmd =
  let doc =
    "Run the multi-pass static analyzer: directive validation with \
     accumulated diagnostics (stable MDH0xx codes), combine-operator \
     property verification, and access/locality lints. Targets the whole \
     workload catalogue (no arguments), one workload, or a #pragma mdh \
     source file (--file). Exit status is 1 when any error is reported — \
     or any warning under --strict; hints never fail the check."
  in
  let file_arg =
    let doc = "Analyze a textual #pragma mdh source file instead of a catalogue workload." in
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~doc ~docv:"FILE")
  in
  let strict_arg =
    let doc = "Treat warnings as fatal: exit 1 when any warning is reported." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let run workload file params json strict obs remote =
    let source =
      Option.map
        (fun file ->
          { Op.Check.file; params;
            text = In_channel.with_open_text file In_channel.input_all })
        file
    in
    perform ~view:{ Op.plain with json; strict } ~remote ~obs Op.Check.op
      [ { Op.Check.workload; source } ]
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ workload_opt_arg $ file_arg $ params_arg
      $ json_arg "diagnostics (SARIF 2.1.0)" $ strict_arg
      $ obs_arg ~trace:false $ remote_arg)

let optimize_cmd =
  let doc =
    "Run the verified equality-saturation pass over a workload: saturate \
     the combine bodies (CSE, constant folding, algebraic identities, \
     strength reduction — all bit-preserving) and the lowered plan \
     (unit-level elimination, Seq fusion, tile simplification, and \
     tree-reduce reassociation where the property verifier proved the \
     operator associative), then report every applied rule with its \
     justification and the cost-model delta. Rules are never justified by \
     declared-but-unverified operator annotations."
  in
  let run workload device input no_rewrite json obs remote =
    perform ~view:{ Op.plain with json } ~remote ~obs Op.Optimize.op
      [ { Op.Optimize.subject = { Op.workload; device; input }; no_rewrite } ]
  in
  Cmd.v (Cmd.info "optimize" ~doc)
    Term.(
      const run $ workload_arg $ device_arg $ input_arg $ no_rewrite_arg
      $ json_arg "report (schema mdh-optimize/1)" $ obs_arg ~trace:false
      $ remote_arg)

let plan_cmd =
  let doc =
    "Print the execution-plan IR — the single structure the executor, cost \
     model and code generators all consume — for one workload (or \
     the whole catalogue) on one device (or both). Schedules default to the \
     deterministic per-device lowering default, so the output is stable; \
     $(b,--schedule) plans an explicit schedule instead, and $(b,--digest) \
     prints one structural fingerprint per line (pinned by the repository's \
     plan-consistency check)."
  in
  let device_opt_arg =
    Arg.(value & opt (some string) None & info [ "device"; "d" ] ~docv:"gpu|cpu")
  in
  let schedule_arg =
    let doc =
      "Plan this explicit schedule (the $(b,tiles=..)$(b, parallel=[..]) \
       $(b,layers=[..]) syntax that mdhc tune prints) instead of the \
       per-device default."
    in
    Arg.(value & opt (some string) None & info [ "schedule" ] ~doc ~docv:"SCHED")
  in
  let digest_arg =
    let doc = "Print only $(i,workload device digest) lines." in
    Arg.(value & flag & info [ "digest" ] ~doc)
  in
  let run workload device input schedule digest no_cache obs remote =
    if no_cache then Op.setup_cache ~no_cache ~tuning_db:None;
    let workloads =
      match workload with
      | Some w -> [ w ]
      | None -> List.map (fun (w : W.t) -> w.W.wl_name) Mdh_workloads.Catalog.all
    in
    let devices = match device with Some d -> [ d ] | None -> [ "cpu"; "gpu" ] in
    perform ~view:{ Op.plain with digest } ~remote ~obs Op.Plan_op.op
      (List.concat_map
         (fun workload ->
           List.map
             (fun device ->
               { Op.Plan_op.subject = { Op.workload; device; input }; schedule })
             devices)
         workloads)
  in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(
      const run $ workload_opt_arg $ device_opt_arg $ test_input_arg
      $ schedule_arg $ digest_arg $ no_cache_arg $ obs_arg ~trace:false
      $ remote_arg)

let () =
  (match Mdh_fault.Fault.arm_from_env () with
  | Ok _ -> ()
  | Error msg ->
    prerr_endline ("mdhc: MDH_FAULTS: " ^ msg);
    exit 1);
  let doc = "MDH directive compiler driver (paper reproduction)" in
  let info = Cmd.info "mdhc" ~version:Op.version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; devices_cmd; show_cmd; plan_cmd; profile_cmd; tune_cmd;
            compare_cmd; run_cmd; compile_cmd; codegen_cmd; check_cmd;
            optimize_cmd ]))
