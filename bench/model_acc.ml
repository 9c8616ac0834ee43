(* Cost-model accuracy over the catalogue: does the model *rank* schedules
   the way the machine does?

   For every workload (the plan-exec sizes), a pinned RNG draws legal
   schedules from the tuning space, the cost model prices each one on the
   calibrated host device (see Calibrate.fitted_host_device — correlating
   against the fictional A100 would conflate model error with machine
   mismatch), and the executor measures each one on the pool. Per workload
   we report Spearman and Kendall rank correlation between predicted and
   measured seconds plus the median multiplicative ratio error, and write
   BENCH_model_acc.json (schema mdh-model-acc/1) — the artifact the CI
   perf gate holds against committed correlation floors.

   The draws are pinned (seed 101 + workload index, duplicates dropped),
   so reruns rank the same schedule set. *)

module W = Mdh_workloads.Workload
module Schedule = Mdh_lowering.Schedule
module Cost = Mdh_lowering.Cost
module Pool = Mdh_runtime.Pool
module Exec = Mdh_runtime.Exec
module Space = Mdh_atf.Space
module Stats = Mdh_support.Stats
module Rng = Mdh_support.Rng
module J = Mdh_obs.Json

let samples_per_workload = 8
let runs_per_schedule = 3

(* larger than the plan-exec sizes: the ranking is only meaningful when
   the mechanisms the model prices (compute, traffic, parallel speedup)
   dominate the measurement, not per-box pool dispatch — at the plan-exec
   sizes a parallel schedule loses to dispatch overhead and every
   correlation inverts. The record-typed, custom-operator workloads (prl,
   kmeans) stay moderate so the sweep finishes in tens of seconds. *)
let cases =
  [ ("dot", [ ("K", 2_000_000) ]);
    ("matvec", [ ("I", 1536); ("K", 1536) ]);
    ("matmul", [ ("I", 128); ("J", 128); ("K", 128) ]);
    ("matmul^t", [ ("I", 128); ("J", 128); ("K", 128) ]);
    ("bmatmul", [ ("B", 16); ("I", 48); ("J", 48); ("K", 48) ]);
    ("gaussian_2d", [ ("N", 384); ("M", 384) ]);
    ("jacobi_3d", [ ("N", 56) ]);
    ("prl", [ ("N", 64); ("I", 2048) ]);
    ("ccsd(t)",
     [ ("h3", 6); ("h2", 4); ("h1", 4); ("p6", 6); ("p5", 4); ("p4", 4);
       ("h7", 6) ]);
    ("mcc", [ ("N", 1); ("P", 6); ("Q", 6); ("K", 8); ("R", 3); ("S", 3); ("C", 8) ]);
    ("mcc_caps",
     [ ("N", 1); ("P", 4); ("Q", 4); ("K", 4); ("R", 3); ("S", 3); ("C", 4);
       ("M", 2) ]);
    ("mbbs", [ ("I", 512); ("J", 128) ]);
    ("jacobi1d", [ ("N", 1_000_000) ]) ]

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let _, t = Mdh_support.Util.time_it f in
    if t < !best then best := t
  done;
  !best

let num_or_null x = if Float.is_nan x then "null" else J.number x

(* Three quality anchors plus pinned-random draws. Purely random legal
   schedules cluster in the middle of the quality range (and the model
   prices many of them identically), so the rank correlation would be
   dominated by measurement noise; the anchors — fully sequential,
   deterministic tiled default, everything-parallel — span the range the
   model actually claims to order. *)
let draw_schedules md dev ~seed ~want =
  let space, decode = Mdh_atf.Tuner.space md dev in
  let rng = Rng.create seed in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let push sched =
    let key = Format.asprintf "%a" Schedule.pp sched in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := sched :: !out
    end
  in
  push (Schedule.sequential md);
  push (Mdh_lowering.Lower.mdh_default md dev);
  push
    { (Schedule.sequential md) with
      Schedule.parallel_dims = Mdh_lowering.Lower.parallelisable_dims md;
      used_layers = [ 0 ] };
  let attempts = ref 0 in
  while List.length !out < want && !attempts < want * 20 do
    incr attempts;
    match Space.sample space rng with
    | None -> attempts := want * 20
    | Some config -> push (decode config)
  done;
  List.rev !out

let bench_one pool dev idx (w : W.t) params =
  let md = W.to_md_hom w params in
  let env = w.W.gen params ~seed:17 in
  let name = String.lowercase_ascii w.W.wl_name in
  let scheds = draw_schedules md dev ~seed:(101 + idx) ~want:samples_per_workload in
  let pairs =
    List.filter_map
      (fun sched ->
        match Cost.seconds md dev Cost.tuned_codegen sched with
        | Error _ -> None
        | Ok predicted ->
          let run () =
            match Exec.run ~device:dev pool md sched env with
            | Ok e -> ignore e
            | Error e -> failwith (name ^ ": " ^ e)
          in
          let measured = best_of runs_per_schedule run in
          Some (sched, predicted, measured))
      scheds
  in
  let predicted = Array.of_list (List.map (fun (_, p, _) -> p) pairs) in
  let measured = Array.of_list (List.map (fun (_, _, m) -> m) pairs) in
  let spearman = Stats.spearman predicted measured in
  let kendall = Stats.kendall predicted measured in
  let median_ratio =
    if pairs = [] then nan
    else
      Stats.median
        (Array.map2
           (fun p m -> if p > m then p /. m else m /. p)
           predicted measured)
  in
  Printf.printf
    "%-11s %2d schedules  spearman %+.2f  kendall %+.2f  median ratio %.1fx\n%!"
    name (List.length pairs) spearman kendall median_ratio;
  let row =
    J.obj
      [ ("name", J.quote name);
        ("n_schedules", string_of_int (List.length pairs));
        ("spearman", num_or_null spearman);
        ("kendall", num_or_null kendall);
        ("median_ratio", num_or_null median_ratio);
        ("pairs",
         J.arr
           (List.map
              (fun (sched, p, m) ->
                J.obj
                  [ ("schedule", J.quote (Format.asprintf "%a" Schedule.pp sched));
                    ("predicted_s", J.number p);
                    ("measured_s", J.number m) ])
              pairs)) ]
  in
  (row, spearman)

let run () =
  print_endline
    "[model-acc] predicted-vs-measured schedule ranking on the calibrated host";
  Pool.with_pool (fun pool ->
      let dev = Calibrate.fitted_host_device pool in
      Printf.printf "[model-acc] fitted host: %.1f GFLOP/s peak, %.1f GB/s DRAM\n%!"
        dev.Mdh_machine.Device.peak_gflops
        dev.Mdh_machine.Device.mem.(0).Mdh_machine.Device.bandwidth_gbs;
      let rows, spearmans =
        List.split
          (List.mapi
             (fun idx (name, params) ->
               match Mdh_workloads.Catalog.find name with
               | Some w -> bench_one pool dev idx w params
               | None -> failwith ("unknown workload " ^ name))
             cases)
      in
      let valid = List.filter (fun s -> not (Float.is_nan s)) spearmans in
      let mean_spearman =
        if valid = [] then nan
        else List.fold_left ( +. ) 0.0 valid /. float_of_int (List.length valid)
      in
      Printf.printf "[model-acc] mean spearman over %d workloads: %+.3f\n"
        (List.length valid) mean_spearman;
      let json =
        J.obj
          [ ("schema", J.quote "mdh-model-acc/1");
            ("device", J.quote dev.Mdh_machine.Device.device_name);
            ("samples_per_workload", string_of_int samples_per_workload);
            ("mean_spearman", num_or_null mean_spearman);
            ("workloads", J.arr rows) ]
      in
      Out_channel.with_open_text "BENCH_model_acc.json" (fun oc ->
          output_string oc json;
          output_char oc '\n');
      print_endline "[model-acc] wrote BENCH_model_acc.json")
