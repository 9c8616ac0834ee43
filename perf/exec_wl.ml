(* exec-fp32 and exec-boxed: run tuned schedules the way a user's
   program would, through Exec.run with its default dispatch.

   Set-up per case (all of it is setup_s, repeated on cold caches): build
   the computation from its directive, saturate it with the rewriter,
   tune it for the host device of the pool (Tuner.tune ~saturate:true),
   build the winner's plan, and run it once (the specializer compiles
   here). The window then calls Exec.run round-robin
   over the cases until the time is up. The fp32 cases reach Fastpath
   (matmul, matvec, dot) or the Specializer (the rest); the boxed cases (a
   custom operator, a record type) are refused by both and run in the box
   walker, so an executor change predicts a move on one workload and none
   on the other.

   The outputs of each case's last call are checked against the
   workload's hand-written oracle (Semantics.exec where it has none),
   after the peak RSS is read so the oracle's own memory is not counted.
   A traced run alternates traced and untraced rounds (the tracing
   overhead is their ratio) and also times, untraced, each case's backend
   called directly and the untuned default schedule. *)

module W = Mdh_workloads.Workload
module Md_hom = Mdh_core.Md_hom
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Schedule = Mdh_lowering.Schedule
module Plan = Mdh_lowering.Plan
module Plan_cache = Mdh_lowering.Plan_cache
module Cost = Mdh_lowering.Cost
module Rewrite = Mdh_rewrite.Rewrite
module Tuner = Mdh_atf.Tuner
module Pool = Mdh_runtime.Pool
module Exec = Mdh_runtime.Exec
module Metrics = Mdh_obs.Metrics
module Trace = Mdh_obs.Trace

(* (catalogue name, metric label, sizes). The sizes put the cost in
   execution rather than in per-call overhead, 5-300 ms of CPU per call,
   while the boxed inputs keep the process under about 1 GB. *)
let fp32_cases =
  [ ("matmul", "matmul", [ ("I", 128); ("J", 128); ("K", 128) ]);
    ("matvec", "matvec", [ ("I", 1024); ("K", 1024) ]);
    ("dot", "dot", [ ("K", 1_000_000) ]);
    ("bmatmul", "bmatmul", [ ("B", 16); ("I", 48); ("J", 48); ("K", 48) ]);
    ("ccsd(t)", "ccsd_t",
     [ ("h3", 8); ("h2", 6); ("h1", 6); ("p6", 8); ("p5", 6); ("p4", 6);
       ("h7", 8) ]);
    ("jacobi_3d", "jacobi_3d", [ ("N", 56) ]);
    ("mbbs", "mbbs", [ ("I", 512); ("J", 128) ]);
    ("mcc", "mcc",
     [ ("N", 1); ("P", 6); ("Q", 6); ("K", 8); ("R", 3); ("S", 3); ("C", 8) ]) ]

let boxed_cases =
  [ ("prl", "prl", [ ("N", 64); ("I", 2048) ]);
    ("kmeans", "kmeans", [ ("N", 2048); ("K", 64) ]) ]

type backend = Fastpath | Specializer | Walker

let backend_name = function
  | Fastpath -> "fastpath"
  | Specializer -> "specializer"
  | Walker -> "walker"

type case = {
  label : string;
  w : W.t;
  params : W.params;
  env : Buffer.env;  (* the seeded inputs *)
}

type ready = {
  case : case;
  raw : Md_hom.t;
  md : Md_hom.t;  (* saturated: what runs *)
  sched : Schedule.t;
  plan : Plan.t;
  backend : backend;
  rules : int;
  evaluations : int;
}

let fastpath_hits = Metrics.counter "runtime.kernels.fastpath_hits"
let specializer_runs = Metrics.histogram "runtime.specializer.run_s"
let specializer_compile = Metrics.histogram "runtime.specializer.compile_s"
let n_special () = (Metrics.histogram_value specializer_runs).Metrics.h_count

(* which backend served the call that happened since the two readings *)
let served ~fp0 ~sp0 =
  if Metrics.value fastpath_hits > fp0 then Fastpath
  else if n_special () > sp0 then Specializer
  else Walker

let get what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let setup_case pool dev c =
  let id = "setup:" ^ c.label in
  let raw =
    Layers.span "directive" ~id "to_md_hom" (fun () -> W.to_md_hom c.w c.params)
  in
  let md, applied =
    Layers.span "rewrite" ~id "saturate_outputs" (fun () ->
        Rewrite.saturate_outputs raw)
  in
  let tuning =
    Layers.span "atf" ~id "tune" (fun () ->
        Tuner.tune ~saturate:true ~pool raw dev Cost.tuned_codegen)
    |> get (c.label ^ ": tune")
  in
  let sched = tuning.Tuner.schedule in
  let plan =
    Layers.span "lowering" ~id "plan_build" (fun () -> Plan_cache.build md dev sched)
    |> get (c.label ^ ": plan")
  in
  let fp0 = Metrics.value fastpath_hits and sp0 = n_special () in
  ignore
    (Layers.span "runtime" ~id "exec_run" (fun () -> Exec.run pool md sched c.env)
    |> get (c.label ^ ": warm-up run"));
  { case = c; raw; md; sched; plan; backend = served ~fp0 ~sp0;
    rules = List.length applied;
    evaluations = tuning.Tuner.search.Mdh_atf.Search.evaluations }

(* One cold set-up: pool, then every case. Returns the pool (the caller
   shuts it down), the prepared cases and what it cost.

   The pool has no worker domain. On the 2-vCPU shared host this
   benchmark was set up on, a second domain turned the hypervisor's steal
   into CPU time (a domain waits on the other at every job barrier and
   every minor collection): the CPU cost per call moved by 0.13-0.17
   (interquartile range over median) across runs with it and by 0.04-0.08
   without it, interleaved on the same host. *)
let setup_once cases =
  Plan_cache.clear ();
  Mdh_atf.Cost_cache.clear ();
  Mdh_runtime.Specializer.clear ();
  Meter.measure (fun () ->
      let pool = Pool.create ~num_domains:0 () in
      let dev = Exec.host_device pool in
      (pool, List.map (setup_case pool dev) cases))

type tally = {
  r : ready;
  mutable untraced : Meter.sample list;  (* per Exec.run *)
  mutable traced : Meter.sample list;
  mutable direct : Meter.sample list;  (* the serving backend called directly *)
  mutable default : Meter.sample list;  (* the untuned default schedule *)
  mutable last : Buffer.env option;
  mutable errors : int;
}

let walls = List.map (fun s -> s.Meter.wall_s)
let cpus = List.map (fun s -> s.Meter.cpu_s)

let call_direct pool r env =
  match r.backend with
  | Fastpath -> Mdh_runtime.Fastpath.try_run pool r.plan r.md env <> None
  | Specializer -> Mdh_runtime.Specializer.try_run pool r.plan r.md env <> None
  | Walker ->
    Result.is_ok
      (Exec.run_with_plan ~fastpath:false ~specialize:false pool r.plan r.md env)

let default_schedule pool r =
  { (Mdh_lowering.Lower.mdh_default r.md (Exec.host_device pool)) with
    Schedule.used_layers = [ 0 ] }

let window ~seconds ~traced ~table pool tallies =
  let counts = Hashtbl.create 3 in
  let count b =
    Hashtbl.replace counts b (1 + Option.value ~default:0 (Hashtbl.find_opt counts b))
  in
  let stop = Meter.wall () +. seconds in
  let round = ref 0 in
  while !round = 0 || Meter.wall () < stop do
    let tracing = traced && !round mod 2 = 1 in
    Trace.set_enabled tracing;
    List.iter
      (fun t ->
        let env = t.r.case.env in
        let id = Printf.sprintf "%d:%s" !round t.r.case.label in
        let fp0 = Metrics.value fastpath_hits and sp0 = n_special () in
        let result, s =
          Meter.measure (fun () ->
              Layers.span "runtime" ~id "exec_run" (fun () ->
                  Exec.run pool t.r.md t.r.sched env))
        in
        (match result with
        | Ok out ->
          count (served ~fp0 ~sp0);
          t.last <- Some out;
          if tracing then t.traced <- s :: t.traced else t.untraced <- s :: t.untraced
        | Error _ -> t.errors <- t.errors + 1);
        (* the extra calls run in every round of a traced run, untraced,
           so traced and untraced rounds differ only in tracing *)
        if traced then begin
          Trace.set_enabled false;
          let ok, s = Meter.measure (fun () -> call_direct pool t.r env) in
          if ok then t.direct <- s :: t.direct else t.errors <- t.errors + 1;
          (match
             Meter.measure (fun () -> Exec.run pool t.r.md (default_schedule pool t.r) env)
           with
          | Ok _, s -> t.default <- s :: t.default
          | Error _, _ -> t.errors <- t.errors + 1);
          Trace.set_enabled tracing
        end)
      tallies;
    if tracing then
      Layers.span "obs" ~id:(string_of_int !round) "drain" (fun () ->
          Layers.drain table ~ops:(List.length tallies));
    incr round
  done;
  Trace.set_enabled false;
  Layers.drain table ~ops:0;
  counts

let check_output t =
  match t.last with
  | None -> false
  | Some got ->
    let c = t.r.case in
    let expected =
      match c.w.W.reference with
      | Some oracle -> oracle c.params c.env
      | None -> Mdh_core.Semantics.exec t.r.raw c.env
    in
    List.for_all
      (fun (o : Md_hom.output) ->
        let data e = Buffer.data (Buffer.env_find e o.Md_hom.out_name) in
        Dense.approx_equal ~rel:1e-3 ~abs:1e-4 (data got) (data expected))
      t.r.raw.Md_hom.outputs

(* roofline flops of the raw computation: flops the rewriter removes show
   up as speed *)
let raw_flops dev md =
  match Cost.analyse md dev Cost.tuned_codegen (Schedule.sequential md) with
  | Ok a -> a.Cost.stats.Mdh_machine.Roofline.flops
  | Error e -> failwith ("flops: " ^ e)

let run ~name ~boxed ~smoke ~seed ~seconds ~traced =
  let specs = if boxed then boxed_cases else fp32_cases in
  let cases =
    List.map
      (fun (wl, label, sizes) ->
        let w = Option.get (Mdh_workloads.Catalog.find wl) in
        let params = if smoke then w.W.test_params else sizes in
        { label; w; params; env = w.W.gen params ~seed })
      specs
  in
  let setup_table = Layers.create () and table = Layers.create () in
  let reps = if smoke then 1 else 3 in
  let compile_s () = (Metrics.histogram_value specializer_compile).Metrics.h_sum in
  let rec setups k costs =
    Trace.set_enabled traced;
    Trace.clear ();
    let c0 = compile_s () in
    let (pool, readies), cost = setup_once cases in
    Trace.set_enabled false;
    if k < reps then begin
      Pool.shutdown pool;
      setups (k + 1) (cost :: costs)
    end
    else begin
      Layers.drain setup_table ~ops:1;
      (pool, readies, cost :: costs, compile_s () -. c0)
    end
  in
  let pool, readies, setup_costs, compile_s = setups 1 [] in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let tallies =
    List.map
      (fun r ->
        { r; untraced = []; traced = []; direct = []; default = []; last = None;
          errors = 0 })
      readies
  in
  (* every run starts its window from the same heap state *)
  Gc.full_major ();
  let counts, window_cost =
    Meter.measure (fun () -> window ~seconds ~traced ~table pool tallies)
  in
  let rss = Meter.peak_rss_mb "self" in
  List.iter
    (fun t ->
      Printf.printf "[e2e] %s: %-9s %-11s cpu mean %8.2f ms  wall p50 %8.2f ms  n=%d\n"
        name t.r.case.label (backend_name t.r.backend)
        (1e3 *. Sample.mean (cpus t.untraced))
        (1e3 *. Sample.median (walls t.untraced))
        (List.length t.untraced))
    tallies;
  let sum f ts = List.fold_left (fun n t -> n + f t) 0 ts in
  let n_calls t = List.length t.untraced + List.length t.traced in
  let calls = sum n_calls tallies and errors = sum (fun t -> t.errors) tallies in
  let wrong = List.filter (fun t -> not (check_output t)) tallies in
  List.iter
    (fun t ->
      Printf.printf "[e2e] %s: %s output does not match its oracle\n" name t.r.case.label)
    wrong;
  let failed = errors + sum n_calls wrong in
  let geo f = Sample.geomean (List.map f tallies) in
  let n = sum (fun t -> List.length t.untraced) tallies in
  let mean_cpu t = Sample.mean (cpus t.untraced) in
  let e2e =
    Report.
      [ metric ~n:reps "setup_s" "s" (Sample.median (cpus setup_costs));
        metric ~n "cpu_ms_per_op" "ms" (1e3 *. geo mean_cpu);
        metric "peak_rss_mb" "MB" rss ]
  in
  let per_layer =
    if not traced then []
    else begin
      let dev = Exec.host_device pool in
      let gflops t = raw_flops dev t.r.raw /. mean_cpu t /. 1e9 in
      let cpu_ratio a b = Sample.mean (cpus a) /. Sample.mean (cpus b) in
      let wall_ratio a b = Sample.median (walls a) /. Sample.median (walls b) in
      let per_case =
        List.concat_map
          (fun t ->
            let c = "runtime." ^ t.r.case.label in
            let n = List.length t.untraced in
            let cpu = cpus t.untraced in
            Report.
              [ metric ~n (c ^ ".gflops") "GFLOP/s" (gflops t);
                metric ~n (c ^ ".tail_ratio") "ratio"
                  (Sample.percentile cpu 0.9 /. Sample.median cpu);
                metric ~n (c ^ ".dispatch_frac") "frac"
                  (1.0 -. cpu_ratio t.direct t.untraced) ])
          tallies
      in
      let runtime_gflops = geo gflops in
      let count b = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts b)) in
      let saved t = 1.0 -. (raw_flops dev t.r.md /. raw_flops dev t.r.raw) in
      let wall q t = Sample.percentile (walls t.untraced) q in
      per_case
      @ Report.
          [ metric ~n:reps "wall.setup_s" "s" (Sample.median (walls setup_costs));
            metric ~n "wall.p50_ms" "ms" (1e3 *. geo (wall 0.5));
            metric ~n "wall.p90_ms" "ms" (1e3 *. geo (wall 0.9));
            metric ~n:calls "wall.ops_per_s" "1/s"
              (float_of_int calls /. window_cost.Meter.wall_s);
            metric "runtime.gflops" "GFLOP/s" runtime_gflops;
            metric "runtime.peak_frac" "frac" (runtime_gflops /. Probe.gflops_per_core ());
            metric "runtime.fastpath_runs" "count" (count Fastpath);
            metric "runtime.specializer_runs" "count" (count Specializer);
            metric "runtime.walker_runs" "count" (count Walker);
            metric "runtime.specializer.compile_frac" "frac"
              (compile_s /. (List.hd setup_costs).Meter.wall_s);
            metric "atf.evaluations" "count"
              (Sample.mean (List.map (fun t -> float_of_int t.r.evaluations) tallies));
            metric "atf.tuned_vs_default" "ratio"
              (geo (fun t -> wall_ratio t.default t.untraced));
            metric "rewrite.rules_applied" "count"
              (float_of_int (sum (fun t -> t.r.rules) tallies));
            metric "rewrite.flops_saved_frac" "frac" (Sample.mean (List.map saved tallies));
            metric "obs.trace_overhead_frac" "frac"
              (geo (fun t -> cpu_ratio t.traced t.untraced) -. 1.0) ]
    end
  in
  Report.
    { workload = name; seed; seconds; traced; attempted = calls + errors;
      failed; correct = failed = 0; e2e; per_layer;
      tables = (if traced then [ ("setup", setup_table); ("window", table) ] else []) }
