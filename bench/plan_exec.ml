(* Three-backend executor benchmark over the whole catalogue: for every
   workload, the same tiled schedule runs through

   - reference: Semantics.exec, the executable semantics — boxed
              per-point interpretation, the baseline every speedup is
              taken over;
   - special: the plan-compiled specializer (every catalogue workload,
              PRL's and KMeans's records and custom operators included),
              timed per call, which compiles the plan (microseconds) and
              runs its row programs;
   - cc:      the generated OpenMP C, compiled once with gcc -O3 -fopenmp
              and timed per driver invocation (build time reported
              separately; skipped with a printed note when gcc is absent
              or the computation exceeds the Listing 2 C shape).

   Every backend's result is checked against Semantics.exec before it is
   timed: the specializer at the repository tolerance, the compiled C a
   decade looser (C float accumulation plus OpenMP reassociation).

   Results go to stdout and BENCH_plan_exec.json (best-of-N seconds plus
   speedups over the reference); the JSON is a run artifact, not a source — CI
   uploads it, .gitignore excludes it. *)

module W = Mdh_workloads.Workload
module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense
module Schedule = Mdh_lowering.Schedule
module Lower = Mdh_lowering.Lower
module Plan = Mdh_lowering.Plan
module Pool = Mdh_runtime.Pool
module Specializer = Mdh_runtime.Specializer
module Cc = Mdh_codegen.Cc
module J = Mdh_obs.Json
module Rewrite = Mdh_rewrite.Rewrite

let cpu = Mdh_machine.Device.xeon6140_like

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let _, t = Mdh_support.Util.time_it f in
    if t < !best then best := t
  done;
  !best

let tiled_schedule md =
  { (Lower.mdh_default md cpu) with Schedule.used_layers = [ 0 ] }

let check_result ~rel ~abs name md got expected =
  List.iter
    (fun (o : Md_hom.output) ->
      let data e = Buffer.data (Buffer.env_find e o.Md_hom.out_name) in
      if not (Dense.approx_equal ~rel ~abs (data got) (data expected)) then
        failwith (name ^ ": backend result mismatch"))
    md.Md_hom.outputs

(* moderate sizes: big enough that per-point interpretation overhead
   dominates, small enough that the full catalogue sweep stays in seconds *)
let cases =
  [ ("dot", [ ("K", 200_000) ]);
    ("matvec", [ ("I", 512); ("K", 512) ]);
    ("matmul", [ ("I", 48); ("J", 48); ("K", 48) ]);
    ("matmul^t", [ ("I", 48); ("J", 48); ("K", 48) ]);
    ("bmatmul", [ ("B", 8); ("I", 24); ("J", 24); ("K", 24) ]);
    ("gaussian_2d", [ ("N", 96); ("M", 96) ]);
    ("jacobi_3d", [ ("N", 30) ]);
    ("prl", [ ("N", 64); ("I", 1024) ]);
    ("ccsd(t)",
     [ ("h3", 6); ("h2", 4); ("h1", 4); ("p6", 6); ("p5", 4); ("p4", 4);
       ("h7", 6) ]);
    ("mcc", [ ("N", 1); ("P", 6); ("Q", 6); ("K", 8); ("R", 3); ("S", 3); ("C", 8) ]);
    ("mcc_caps",
     [ ("N", 1); ("P", 4); ("Q", 4); ("K", 4); ("R", 3); ("S", 3); ("C", 4);
       ("M", 2) ]);
    ("mbbs", [ ("I", 256); ("J", 64) ]);
    ("jacobi1d", [ ("N", 100_000) ]);
    ("kmeans", [ ("N", 512); ("K", 64) ]) ]

let bench_one pool (w : W.t) params =
  let md = W.to_md_hom w params in
  let env = w.W.gen params ~seed:17 in
  let name = String.lowercase_ascii w.W.wl_name in
  let size =
    String.concat "x" (Array.to_list (Array.map string_of_int md.Md_hom.sizes))
  in
  let sched = tiled_schedule md in
  let plan =
    match Plan.build md cpu sched with
    | Ok p -> p
    | Error e -> failwith (name ^ ": plan build: " ^ e)
  in
  let expected = Semantics.exec md env in
  let reference_s = best_of 3 (fun () -> Semantics.exec md env) in
  (* special: compile and run, per call *)
  let special_s =
    match Specializer.supported plan md with
    | Error reason ->
      Printf.printf "%-11s %-22s  specializer unsupported: %s\n%!" name size
        reason;
      None
    | Ok () ->
      let run_special () =
        match Specializer.try_run pool plan md env with
        | Some e -> e
        | None -> failwith (name ^ ": specializer refused a supported plan")
      in
      check_result ~rel:1e-4 ~abs:1e-5 name md (run_special ()) expected;
      Some (best_of 3 run_special)
  in
  (* cc: build once (reported separately), time the driver runs *)
  let cc_build_s, cc_s =
    if not (Cc.available ()) then (None, None)
    else
      match Mdh_support.Util.time_it (fun () -> Cc.build md) with
      | Error reason, _ ->
        Printf.printf "%-11s %-22s  %s\n%!" name size reason;
        (None, None)
      | Ok t, build_s ->
        let run_cc () =
          match Cc.run t env with
          | Ok e -> e
          | Error e -> failwith (name ^ ": " ^ e)
        in
        check_result ~rel:1e-3 ~abs:1e-4 name md (run_cc ()) expected;
        let s = best_of 3 run_cc in
        Cc.cleanup t;
        (Some build_s, Some s)
  in
  (* rewritten: the equality-saturated computation through the
     reference, so the column isolates what `mdhc optimize` buys (fewer
     point flops) from backend dispatch effects *)
  let rewritten_s, rewrite_rules =
    match
      Rewrite.optimize ~oracle:(Mdh_analysis.Opcheck_oracle.oracle ()) md cpu
        Mdh_lowering.Cost.tuned_codegen sched
    with
    | Error e -> failwith (name ^ ": rewrite: " ^ e)
    | Ok r ->
      let run_rewritten () = Semantics.exec r.Rewrite.r_md env in
      check_result ~rel:1e-4 ~abs:1e-5 name md (run_rewritten ()) expected;
      (best_of 3 run_rewritten, List.length r.Rewrite.r_applied)
  in
  let speedup = Option.map (fun s -> reference_s /. s) in
  let fmt_opt = function
    | Some s -> Printf.sprintf "%.4fs (%.1fx)" s (reference_s /. s)
    | None -> "-"
  in
  Printf.printf
    "%-11s %-22s  reference %.4fs  rewritten %.4fs (%.1fx, %d rules)  special \
     %-18s  cc %s\n\
     %!"
    name size reference_s rewritten_s (reference_s /. rewritten_s) rewrite_rules
    (fmt_opt special_s)
    (fmt_opt cc_s);
  let num_opt = function Some s -> J.number s | None -> "null" in
  J.obj
    [ ("name", J.quote name);
      ("size", J.quote size);
      ("reference_s", J.number reference_s);
      ("rewritten_s", J.number rewritten_s);
      ("rewrite_rules", string_of_int rewrite_rules);
      ("rewrite_speedup", J.number (reference_s /. rewritten_s));
      ("special_s", num_opt special_s);
      ("cc_s", num_opt cc_s);
      ("cc_build_s", num_opt cc_build_s);
      ("special_supported", if special_s = None then "false" else "true");
      ("cc_supported", if cc_s = None then "false" else "true");
      ("special_speedup", num_opt (speedup special_s));
      ("cc_speedup", num_opt (speedup cc_s)) ]

let run () =
  print_endline
    "[plan-exec] reference semantics vs plan-compiled specializer vs \
     compiled OpenMP C (host pool)";
  if not (Cc.available ()) then
    print_endline "[plan-exec] gcc not on PATH: cc columns will be null";
  let rows =
    Pool.with_pool (fun pool ->
        List.map
          (fun (name, params) ->
            match Mdh_workloads.Catalog.find name with
            | Some w -> bench_one pool w params
            | None -> failwith ("unknown workload " ^ name))
          cases)
  in
  let json =
    J.obj [ ("schema", J.quote "mdh-bench-plan-exec/3"); ("workloads", J.arr rows) ]
  in
  Out_channel.with_open_text "BENCH_plan_exec.json" (fun oc ->
      output_string oc json;
      output_char oc '\n');
  print_endline "[plan-exec] wrote BENCH_plan_exec.json"
