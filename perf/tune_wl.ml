(* tune-cold: what every fresh `mdhc tune` process pays, one client in a
   closed loop.

   Each request is a seeded draw of a catalogue workload at its paper
   input 1, a device (gpu or cpu) and a tune seed. Before each request the
   plan, cost and specializer caches are cleared and an empty in-memory
   tuning database is opened, so every request misses every cache and the
   work is all cache writes: directive -> analysis -> rewrite -> tune
   (budget 400, saturated, on the default pool) -> plan of the winner.
   Nothing executes. A request is correct when the analyzer finds no
   error, every stage succeeds, and a repeated (workload, device, seed)
   draw tunes to the same schedule as its first sighting. A traced run
   alternates traced and untraced requests; the tracing overhead compares
   the two per (workload, device, seed). *)

module W = Mdh_workloads.Workload
module Schedule = Mdh_lowering.Schedule
module Cost = Mdh_lowering.Cost
module Plan_cache = Mdh_lowering.Plan_cache
module Rewrite = Mdh_rewrite.Rewrite
module Tuner = Mdh_atf.Tuner
module Cost_cache = Mdh_atf.Cost_cache
module Pool = Mdh_runtime.Pool
module Rng = Mdh_support.Rng
module Trace = Mdh_obs.Trace

type draw = { w : W.t; params : W.params; dev : Mdh_machine.Device.t; tseed : int }

let catalogue = Array.of_list Mdh_workloads.Catalog.all
let devices = [| Mdh_machine.Device.a100_like; Mdh_machine.Device.xeon6140_like |]

(* Draws come in decks: every (workload, device) pair once per deck, in
   a seeded order with a seeded tune seed, so the mix of cheap and costly
   tunes is the same in every run and only the order changes with the
   seed. *)
let deck ~smoke rng =
  let pairs =
    Array.concat
      (List.map
         (fun dev ->
           Array.map
             (fun (w : W.t) ->
               let params =
                 if smoke then w.W.test_params else List.assoc "1" w.W.paper_inputs
               in
               (w, params, dev))
             catalogue)
         (Array.to_list devices))
  in
  Rng.shuffle rng pairs;
  Array.to_list
    (Array.map (fun (w, params, dev) -> { w; params; dev; tseed = Rng.int_in rng 1 4 }) pairs)

let key d =
  Printf.sprintf "%s|%s|%d" d.w.W.wl_name d.dev.Mdh_machine.Device.device_name d.tseed

type stats = {
  evaluations : int;
  tune_cpu_s : float;
  rules : int;
  flops_saved : float;
  cost_hits : int;
  cost_lookups : int;
  plan_hits : int;
  plan_lookups : int;
}

(* a fresh process's caches; not part of the timed request *)
let reset () =
  Plan_cache.clear ();
  Cost_cache.clear ();
  Mdh_runtime.Specializer.clear ();
  Mdh_atf.Tuning_db.in_memory ()

(* Ok (schedule, stats) or the first failure *)
let request ~pool ~db ~id d =
  let c0 = Cost_cache.stats () and p0 = Plan_cache.stats () in
  let md =
    Layers.span "directive" ~id "to_md_hom" (fun () -> W.to_md_hom d.w d.params)
  in
  let diags =
    Layers.span "analysis" ~id "check" (fun () ->
        Mdh_analysis.Analyze.directive (d.w.W.make d.params))
  in
  if Mdh_analysis.Diagnostic.error_count diags > 0 then Error "analysis reported errors"
  else
    match
      Layers.span "rewrite" ~id "optimize" (fun () ->
          Rewrite.optimize ~oracle:(Mdh_analysis.Opcheck_oracle.oracle ()) md d.dev
            Cost.tuned_codegen (Mdh_lowering.Lower.mdh_default md d.dev))
    with
    | Error e -> Error ("optimize: " ^ e)
    | Ok r -> (
      match
        Meter.measure (fun () ->
            Layers.span "atf" ~id "tune" (fun () ->
                Tuner.tune ~saturate:true ~pool ~db ~seed:d.tseed md d.dev
                  Cost.tuned_codegen))
      with
      | Error e, _ -> Error ("tune: " ^ e)
      | Ok tu, tune_cost -> (
        match
          Layers.span "lowering" ~id "plan_build" (fun () ->
              Plan_cache.build r.Rewrite.r_md d.dev tu.Tuner.schedule)
        with
        | Error e -> Error ("plan: " ^ e)
        | Ok _ ->
          let c1 = Cost_cache.stats () and p1 = Plan_cache.stats () in
          let fpp = Mdh_core.Md_hom.flops_per_point in
          Ok
            ( tu.Tuner.schedule,
              { evaluations = tu.Tuner.search.Mdh_atf.Search.evaluations;
                tune_cpu_s = tune_cost.Meter.cpu_s;
                rules = List.length r.Rewrite.r_applied;
                flops_saved =
                  1.0 -. (float_of_int (fpp r.Rewrite.r_md) /. float_of_int (max 1 (fpp md)));
                cost_hits = c1.Cost_cache.n_hits - c0.Cost_cache.n_hits;
                cost_lookups =
                  c1.Cost_cache.n_hits + c1.Cost_cache.n_misses
                  - c0.Cost_cache.n_hits - c0.Cost_cache.n_misses;
                plan_hits = p1.Plan_cache.n_hits - p0.Plan_cache.n_hits;
                plan_lookups =
                  p1.Plan_cache.n_hits + p1.Plan_cache.n_misses
                  - p0.Plan_cache.n_hits - p0.Plan_cache.n_misses } )))

(* The set-up is process-level: create the pool, then run one request per
   (workload, device) pair at the workload's small test size, which
   touches every code path the window takes. *)
let warmup =
  List.concat_map
    (fun dev ->
      List.map
        (fun (w : W.t) -> { w; params = w.W.test_params; dev; tseed = 1 })
        (Array.to_list catalogue))
    (Array.to_list devices)

let run ~smoke ~seed ~seconds ~traced =
  let table = Layers.create () and setup_table = Layers.create () in
  let reps = if smoke then 1 else 5 in
  let rec setups k costs =
    Trace.set_enabled traced;
    Trace.clear ();
    let (pool, ok), cost =
      Meter.measure (fun () ->
          let pool = Pool.create () in
          ( pool,
            List.for_all
              (fun d -> Result.is_ok (request ~pool ~db:(reset ()) ~id:"setup" d))
              warmup ))
    in
    Trace.set_enabled false;
    if not ok then failwith "tune-cold: warm-up request failed";
    if k < reps then begin
      Pool.shutdown pool;
      setups (k + 1) (cost :: costs)
    end
    else begin
      Layers.drain setup_table ~ops:1;
      (pool, cost :: costs)
    end
  in
  let pool, setup_costs = setups 1 [] in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let rng = Rng.create seed in
  let first = Hashtbl.create 64 in
  (* per key: (traced, untraced) CPU seconds, for the tracing overhead *)
  let by_key = Hashtbl.create 64 in
  let untraced = ref [] and n_ok = ref 0 and stats = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let pending = ref [] in
  let t_start = Meter.wall () in
  let stop = t_start +. seconds in
  while !attempted = 0 || Meter.wall () < stop do
    if !pending = [] then pending := deck ~smoke rng;
    let d = List.hd !pending in
    pending := List.tl !pending;
    let tracing = traced && !attempted mod 2 = 1 in
    let db = reset () in
    Trace.set_enabled tracing;
    let id = string_of_int !attempted in
    let result, s = Meter.measure (fun () -> request ~pool ~db ~id d) in
    Trace.set_enabled false;
    incr attempted;
    let k = key d in
    (match result with
    | Ok (sched, st) ->
      let sched = Schedule.to_string sched in
      (match Hashtbl.find_opt first k with
      | None -> Hashtbl.add first k sched
      | Some s0 when s0 = sched -> ()
      | Some s0 ->
        Printf.printf "[e2e] tune-cold: %s tuned to %s, first to %s\n" k sched s0;
        incr failed);
      incr n_ok;
      stats := st :: !stats;
      let tr, un = Option.value ~default:([], []) (Hashtbl.find_opt by_key k) in
      let cpu = s.Meter.cpu_s in
      Hashtbl.replace by_key k (if tracing then (cpu :: tr, un) else (tr, cpu :: un));
      if not tracing then untraced := s :: !untraced
    | Error e ->
      Printf.printf "[e2e] tune-cold: %s failed: %s\n" k e;
      incr failed);
    if tracing then Layers.span "obs" ~id "drain" (fun () -> Layers.drain table ~ops:1)
  done;
  let elapsed = Meter.wall () -. t_start in
  let n = List.length !untraced in
  let cpu = List.map (fun s -> s.Meter.cpu_s) !untraced in
  let wall = List.map (fun s -> s.Meter.wall_s) !untraced in
  let e2e =
    Report.
      [ metric ~n:reps "setup_s" "s"
          (Sample.median (List.map (fun s -> s.Meter.cpu_s) setup_costs));
        metric ~n "cpu_ms_per_op" "ms" (1e3 *. Sample.mean cpu);
        metric "peak_rss_mb" "MB" (Meter.peak_rss_mb "self") ]
  in
  let sum f = List.fold_left (fun acc st -> acc + f st) 0 !stats in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let nst = List.length !stats in
  let overhead =
    Hashtbl.fold
      (fun _ (tr, un) acc ->
        if tr = [] || un = [] then acc else (Sample.mean tr /. Sample.mean un) :: acc)
      by_key []
  in
  let per_layer =
    if not traced then []
    else
      Report.
        [ metric ~n:reps "wall.setup_s" "s"
            (Sample.median (List.map (fun s -> s.Meter.wall_s) setup_costs));
          metric ~n "wall.p50_ms" "ms" (1e3 *. Sample.median wall);
          metric ~n "wall.p90_ms" "ms" (1e3 *. Sample.percentile wall 0.9);
          metric ~n:!n_ok "wall.ops_per_s" "1/s" (float_of_int !n_ok /. elapsed);
          metric ~n:nst "atf.evaluations" "count"
            (ratio (sum (fun st -> st.evaluations)) nst);
          metric ~n:nst "atf.evals_per_s" "1/s"
            (float_of_int (sum (fun st -> st.evaluations))
            /. List.fold_left (fun acc st -> acc +. st.tune_cpu_s) 0.0 !stats);
          metric ~n:nst "atf.cost_cache.hit_ratio" "ratio"
            (ratio (sum (fun st -> st.cost_hits)) (sum (fun st -> st.cost_lookups)));
          metric ~n:nst "lowering.plan_cache.hit_ratio" "ratio"
            (ratio (sum (fun st -> st.plan_hits)) (sum (fun st -> st.plan_lookups)));
          metric ~n:nst "rewrite.rules_applied" "count" (ratio (sum (fun st -> st.rules)) nst);
          metric ~n:nst "rewrite.flops_saved_frac" "frac"
            (Sample.mean (List.map (fun st -> st.flops_saved) !stats));
          metric ~n:(List.length overhead) "obs.trace_overhead_frac" "frac"
            (Sample.geomean overhead -. 1.0) ]
  in
  Report.
    { workload = "tune-cold"; seed; seconds; traced; attempted = !attempted;
      failed = !failed; correct = !failed = 0; e2e; per_layer;
      tables = (if traced then [ ("setup", setup_table); ("window", table) ] else []) }
