(* CI perf-regression gate: hold fresh bench artifacts against the
   committed baselines with explicit tolerances.

     main.exe gate [BASELINES]        (default scripts/bench_baselines.json)

   Three artifacts are checked from the current directory:

   - BENCH_plan_exec.json: for every workload with a committed
     special_speedup, the fresh specializer speedup over the reference
     semantics (Semantics.exec) must reach baseline * speedup_tolerance. Speedups are ratios on the
     same machine and run, so they transfer across hosts where absolute
     seconds would not.
   - BENCH_model_acc.json: the mean Spearman correlation must reach
     min_mean_spearman, and no single workload may rank below
     min_workload_spearman (workloads whose correlation is null — fewer
     than two priced schedules — are skipped, not failed).
   - BENCH_serve.json: the mdhd load generator must have benched at
     least min_levels concurrency levels, and every level must hold a
     throughput floor, a shed-rate ceiling and an error cap (see
     check_serve below for why the bounds are structural, not absolute).

   Every violated bound prints one line; any violation exits 1. A missing
   artifact is a hard failure: the gate must never pass by not running. *)

module J = Mdh_support.Json_in

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "[gate] FAIL %s\n" msg)
    fmt

let load path =
  match J.of_file path with
  | j -> j
  | exception Sys_error _ ->
    Printf.eprintf
      "[gate] error: %s not found (run plan-exec / model-acc first)\n" path;
    exit 1
  | exception J.Parse_error e ->
    Printf.eprintf "[gate] error: %s: %s\n" path e;
    exit 1

let req what = function
  | Some v -> v
  | None ->
    Printf.eprintf "[gate] error: malformed baselines: missing %s\n" what;
    exit 1

let check_plan_exec baselines =
  let fresh = load "BENCH_plan_exec.json" in
  let tol = req "plan_exec.speedup_tolerance" (J.get_float baselines "speedup_tolerance") in
  let floors =
    match J.member "special_speedup" baselines with
    | Some (J.Obj kvs) -> kvs
    | _ -> req "plan_exec.special_speedup" None
  in
  let rows = Option.value ~default:[] (J.get_list fresh "workloads") in
  let speedup_of name =
    List.find_map
      (fun row ->
        if J.get_string row "name" = Some name then
          J.get_float row "special_speedup"
        else None)
      rows
  in
  List.iter
    (fun (name, committed) ->
      let committed = req ("special_speedup." ^ name) (J.to_float committed) in
      let floor = committed *. tol in
      match speedup_of name with
      | None ->
        fail "plan-exec %s: no fresh specializer speedup (was %.1fx)" name
          committed
      | Some fresh_speedup ->
        if fresh_speedup < floor then
          fail "plan-exec %s: specializer speedup %.2fx < floor %.2fx (committed %.1fx, tolerance %.2f)"
            name fresh_speedup floor committed tol
        else
          Printf.printf "[gate] ok   plan-exec %s: %.2fx >= %.2fx\n" name
            fresh_speedup floor)
    floors

let check_model_acc baselines =
  let fresh = load "BENCH_model_acc.json" in
  let min_mean = req "model_acc.min_mean_spearman" (J.get_float baselines "min_mean_spearman") in
  let min_each =
    req "model_acc.min_workload_spearman"
      (J.get_float baselines "min_workload_spearman")
  in
  (match J.get_float fresh "mean_spearman" with
  | None -> fail "model-acc: mean_spearman is null"
  | Some mean ->
    if mean < min_mean then
      fail "model-acc: mean spearman %+.3f < floor %+.3f" mean min_mean
    else Printf.printf "[gate] ok   model-acc mean spearman %+.3f >= %+.3f\n" mean min_mean);
  List.iter
    (fun row ->
      let name = Option.value ~default:"?" (J.get_string row "name") in
      match J.get_float row "spearman" with
      | None -> Printf.printf "[gate] skip model-acc %s: correlation undefined\n" name
      | Some s ->
        if s < min_each then
          fail "model-acc %s: spearman %+.2f < floor %+.2f" name s min_each)
    (Option.value ~default:[] (J.get_list fresh "workloads"))

(* The serve floors are deliberately loose (sized for a slow shared CI
   runner): they reject a daemon that stopped serving, started erroring,
   or sheds most of its load under mild concurrency — not one that got
   slower in absolute terms. *)
let check_serve baselines =
  let fresh = load "BENCH_serve.json" in
  let min_levels =
    int_of_float (req "serve.min_levels" (J.get_float baselines "min_levels"))
  in
  let min_rps = req "serve.min_throughput_rps" (J.get_float baselines "min_throughput_rps") in
  let max_shed = req "serve.max_shed_rate" (J.get_float baselines "max_shed_rate") in
  let max_errors =
    int_of_float (req "serve.max_errors" (J.get_float baselines "max_errors"))
  in
  let rows = Option.value ~default:[] (J.get_list fresh "levels") in
  if List.length rows < min_levels then
    fail "serve: %d concurrency level(s) benched < required %d"
      (List.length rows) min_levels;
  List.iter
    (fun row ->
      let c =
        int_of_float (Option.value ~default:0.0 (J.get_float row "concurrency"))
      in
      let rps = Option.value ~default:0.0 (J.get_float row "throughput_rps") in
      let shed = Option.value ~default:1.0 (J.get_float row "shed_rate") in
      let errors =
        int_of_float (Option.value ~default:1.0 (J.get_float row "errors"))
      in
      if rps < min_rps then
        fail "serve c=%d: throughput %.1f req/s < floor %.1f" c rps min_rps
      else if shed > max_shed then
        fail "serve c=%d: shed rate %.3f > ceiling %.3f" c shed max_shed
      else if errors > max_errors then
        fail "serve c=%d: %d error reply/transport failure(s) (max %d)" c
          errors max_errors
      else
        Printf.printf
          "[gate] ok   serve c=%d: %.1f req/s >= %.1f, shed %.3f <= %.3f\n" c
          rps min_rps shed max_shed)
    rows

let run baselines_path =
  let baselines = load baselines_path in
  (match J.get_string baselines "schema" with
  | Some "mdh-bench-baselines/1" -> ()
  | _ ->
    Printf.eprintf "[gate] error: %s: expected schema mdh-bench-baselines/1\n"
      baselines_path;
    exit 1);
  (match J.member "plan_exec" baselines with
  | Some b -> check_plan_exec b
  | None -> ());
  (match J.member "model_acc" baselines with
  | Some b -> check_model_acc b
  | None -> ());
  (match J.member "serve" baselines with
  | Some b -> check_serve b
  | None -> ());
  if !failures > 0 then begin
    Printf.printf "[gate] %d regression(s) against %s\n" !failures baselines_path;
    exit 1
  end;
  Printf.printf "[gate] green against %s\n" baselines_path
