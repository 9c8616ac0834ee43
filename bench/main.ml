(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index) plus the ablations and the
   wall-clock model calibration.

     dune exec bench/main.exe                   -- everything
     dune exec bench/main.exe figure3           -- Figure 3 table
     dune exec bench/main.exe figure4 [gpu|cpu] -- Figure 4 speedups
     dune exec bench/main.exe failure-matrix    -- Section 5.2 failures
     dune exec bench/main.exe prl-study         -- PRL Inp.1/Inp.2 study
     dune exec bench/main.exe ablation-openacc-tiling
     dune exec bench/main.exe ablation-tiling
     dune exec bench/main.exe ablation-reduction-parallel
     dune exec bench/main.exe ablation-tuning-budget
     dune exec bench/main.exe calibrate         -- model vs wall clock

   Tuning results are cached: cost-model verdicts (and plans) in memory,
   tuned schedules persistently (default ~/.cache/mdh/tuning.db, or
   --tuning-db PATH / $MDH_TUNING_DB), so warm re-runs skip the schedule
   search entirely. --no-cache disables every in-memory cache and the
   database and records nothing; the [tuning] trailer reports what the
   run actually evaluated. *)

let usage () =
  print_endline
    "usage: main.exe [--no-cache] [--tuning-db PATH] [--metrics] [--trace FILE]\n\
    \                [figure3|figure4 [gpu|cpu]|failure-matrix|prl-study|\n\
    \                 ablation-openacc-tiling|ablation-tiling|\n\
    \                 ablation-reduction-parallel|ablation-tuning-budget|calibrate|\n\
    \                 plan-exec|model-acc|serve|gate [BASELINES]]\n\
    \n\
    \  --metrics     print the observability summary (pool utilization, per-\n\
    \                workload cache hit/miss) and write BENCH_obs.json\n\
    \  --trace FILE  write Chrome trace_event JSON of the run (Perfetto)";
  exit 2

let everything () =
  Mdh_reports.Figure3.run ();
  Mdh_reports.Figure4.run `Both;
  Mdh_reports.Failures.run ();
  Mdh_reports.Prl_study.run ();
  Mdh_reports.Portability.run ();
  Mdh_reports.Transfer_study.run ();
  Mdh_reports.Ablations.run ();
  Calibrate.run ()

type flags = {
  no_cache : bool;
  db_path : string option;
  metrics : bool;
  trace : string option;
}

(* strip the option flags (position-independent) before command dispatch *)
let rec extract_flags acc = function
  | [] -> (acc, [])
  | "--no-cache" :: rest -> extract_flags { acc with no_cache = true } rest
  | "--tuning-db" :: path :: rest ->
    extract_flags { acc with db_path = Some path } rest
  | "--tuning-db" :: [] -> usage ()
  | "--metrics" :: rest -> extract_flags { acc with metrics = true } rest
  | "--trace" :: path :: rest -> extract_flags { acc with trace = Some path } rest
  | "--trace" :: [] -> usage ()
  | arg :: rest ->
    let acc, args = extract_flags acc rest in
    (acc, arg :: args)

let print_tuning_stats elapsed =
  let cost = Mdh_atf.Cost_cache.stats () in
  Printf.printf
    "[tuning] cost-model evaluations: %d (in-memory cache hits: %d) in %.2fs\n"
    cost.Mdh_atf.Cost_cache.n_misses cost.Mdh_atf.Cost_cache.n_hits elapsed;
  match Mdh_atf.Tuning_db.ambient () with
  | None -> ()
  | Some db ->
    let stats = Mdh_atf.Tuning_db.stats db in
    Printf.printf "[tuning] db %s: %d/%d searches recalled (%d entries)\n"
      (Option.value ~default:"(in-memory)" (Mdh_atf.Tuning_db.path db))
      stats.Mdh_atf.Tuning_db.n_hits stats.Mdh_atf.Tuning_db.n_lookups
      stats.Mdh_atf.Tuning_db.n_entries

let print_workload_obs () =
  match Mdh_reports.Report.workload_obs () with
  | [] -> ()
  | rows ->
    print_endline "[obs] cost cache per workload (hits/misses):";
    List.iter
      (fun (name, hits, misses, elapsed) ->
        Printf.printf "[obs]   %-16s %6d / %-6d  %.3fs\n" name hits misses elapsed)
      rows

let print_pool_obs () =
  let gauge name = Mdh_obs.Metrics.(gauge_value (gauge name)) in
  let workers = int_of_float (gauge "runtime.pool.workers") in
  if workers > 0 then begin
    let jobs = Mdh_obs.Metrics.(value (counter "runtime.pool.jobs")) in
    let capacity = gauge "runtime.pool.capacity_s" in
    if capacity > 0.0 then
      Printf.printf
        "[obs] pool: %d workers, %d jobs, %.2fs busy of %.2fs worker capacity \
         (utilization %.0f%%)\n"
        workers jobs (gauge "runtime.pool.busy_s") capacity
        (100.0 *. gauge "runtime.pool.utilization")
    else
      (* single-core host: the pool spawned no extra domains, so parallel
         loops ran inline in the caller and there is no capacity to meter *)
      Printf.printf "[obs] pool: caller only (no extra domains on this host), %d jobs\n"
        jobs
  end

(* machine-readable observability record, one per bench invocation, so
   later PRs have a perf trajectory to diff against *)
let write_bench_obs ~command ~elapsed path =
  let module J = Mdh_obs.Json in
  let workloads =
    J.arr
      (List.map
         (fun (name, hits, misses, elapsed) ->
           J.obj
             [ ("name", J.quote name);
               ("cost_cache_hits", string_of_int hits);
               ("cost_cache_misses", string_of_int misses);
               ("elapsed_s", J.number elapsed) ])
         (Mdh_reports.Report.workload_obs ()))
  in
  let json =
    J.obj
      [ ("schema", J.quote "mdh-bench-obs/1");
        ("command", J.quote command);
        ("elapsed_s", J.number elapsed);
        ("metrics", Mdh_obs.Metrics.to_json ());
        ("workloads", workloads) ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc json;
      output_char oc '\n');
  Printf.printf "[obs] wrote %s\n" path

let () =
  let flags, args =
    extract_flags
      { no_cache = false; db_path = None; metrics = false; trace = None }
      (List.tl (Array.to_list Sys.argv))
  in
  Mdh_serve.Op.setup_cache ~no_cache:flags.no_cache ~tuning_db:flags.db_path;
  if flags.trace <> None then Mdh_obs.Trace.set_enabled true;
  let command = match args with [] -> "everything" | args -> String.concat " " args in
  let run body =
    let (), elapsed = Mdh_support.Util.time_it body in
    print_tuning_stats elapsed;
    if flags.metrics then begin
      print_pool_obs ();
      print_workload_obs ();
      let summary = Mdh_obs.Metrics.summary () in
      if summary <> "" then print_string summary;
      write_bench_obs ~command ~elapsed "BENCH_obs.json"
    end;
    match flags.trace with
    | None -> ()
    | Some path ->
      Out_channel.with_open_text path Mdh_obs.Trace.write_chrome;
      Printf.printf "[obs] trace written to %s\n" path
  in
  match args with
  | [] -> run everything
  | [ "figure3" ] -> run Mdh_reports.Figure3.run
  | [ "figure4" ] -> run (fun () -> Mdh_reports.Figure4.run `Both)
  | [ "figure4"; "gpu" ] | [ "figure4"; "--device"; "gpu" ] ->
    run (fun () -> Mdh_reports.Figure4.run `Gpu)
  | [ "figure4"; "cpu" ] | [ "figure4"; "--device"; "cpu" ] ->
    run (fun () -> Mdh_reports.Figure4.run `Cpu)
  | [ "failure-matrix" ] -> run Mdh_reports.Failures.run
  | [ "prl-study" ] -> run Mdh_reports.Prl_study.run
  | [ "portability" ] -> run Mdh_reports.Portability.run
  | [ "transfer-study" ] -> run Mdh_reports.Transfer_study.run
  | [ "ablation-openacc-tiling" ] -> run Mdh_reports.Ablations.openacc_tiling
  | [ "ablation-tiling" ] -> run Mdh_reports.Ablations.tiling
  | [ "ablation-reduction-parallel" ] -> run Mdh_reports.Ablations.reduction_parallel
  | [ "ablation-tuning-budget" ] -> run Mdh_reports.Ablations.tuning_budget
  | [ "plan-exec" ] -> run Plan_exec.run
  | [ "serve" ] -> run Serve_bench.run
  | [ "model-acc" ] -> run Model_acc.run
  | [ "gate" ] -> Gate.run "scripts/bench_baselines.json"
  | [ "gate"; baselines ] -> Gate.run baselines
  | [ "calibrate" ] -> run Calibrate.run
  | _ -> usage ()
