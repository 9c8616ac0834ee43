(* Tests for the plan-level profiler (lib/obs/profile.ml and its runtime
   instrumentation): disabled-mode purity — no cells appear and execution
   results are bit-identical with the flag off vs on; the per-level self
   times telescoping to the enclosing exec cell within the documented 5%;
   digest-keyed accumulation across repeated runs; and the cost model's
   level attribution lining up with the profiler's path vocabulary. *)

module Profile = Mdh_obs.Profile
module W = Mdh_workloads.Workload
module Schedule = Mdh_lowering.Schedule
module Plan = Mdh_lowering.Plan
module Lower = Mdh_lowering.Lower
module Cost = Mdh_lowering.Cost
module Pool = Mdh_runtime.Pool
module Exec = Mdh_runtime.Exec
module Buffer = Mdh_tensor.Buffer
module Dense = Mdh_tensor.Dense

let check = Alcotest.check
let cpu = Mdh_machine.Device.xeon6140_like

(* every test must restore the process-wide flag and registry, or the
   bit-identity assertions see cells from earlier tests *)
let with_profiling f =
  Profile.reset ();
  Profile.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Profile.set_enabled false;
      Profile.reset ())
    f

let find name =
  match Mdh_workloads.Catalog.find name with
  | Some w -> w
  | None -> Alcotest.fail ("unknown workload " ^ name)

(* the same host schedule mdhc profile and the plan-exec bench use: the
   deterministic per-device lowering default pinned to the pool's layer *)
let host_schedule md = { (Lower.mdh_default md cpu) with Schedule.used_layers = [ 0 ] }

let run_profiled ?(schedule = host_schedule) ?specialize pool (w : W.t) =
  let md = W.to_md_hom w w.W.test_params in
  let env = w.W.gen w.W.test_params ~seed:5 in
  let sched = schedule md in
  let plan =
    match Plan.build md (Exec.host_device pool) sched with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  match Exec.run ~fastpath:false ?specialize pool md sched env with
  | Ok env' -> (plan, env')
  | Error e -> Alcotest.fail e

let test_disabled_no_cells () =
  Profile.reset ();
  check Alcotest.bool "flag off" false (Profile.enabled ());
  Pool.with_pool (fun pool -> ignore (run_profiled pool (find "matmul")));
  check Alcotest.(list string) "no cells appear" [] (Profile.digests ())

(* exact value equality (not tolerance) on every output buffer *)
let outputs_equal md a b =
  List.for_all
    (fun (o : Mdh_core.Md_hom.output) ->
      let data e = Buffer.data (Buffer.env_find e o.Mdh_core.Md_hom.out_name) in
      Dense.equal (data a) (data b))
    md.Mdh_core.Md_hom.outputs

(* profiling must never change what a run computes: execute the whole
   catalogue with the flag off and on *)
let test_catalogue_bit_identity () =
  Pool.with_pool (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          Profile.set_enabled false;
          let _, off = run_profiled pool w in
          let _, on = with_profiling (fun () -> run_profiled pool w) in
          check Alcotest.bool
            (String.lowercase_ascii w.W.wl_name ^ " bit-identical")
            true (outputs_equal md off on))
        Mdh_workloads.Catalog.all)

(* the tree view's invariant: level self times (everything that is not a
   phase) sum to the enclosing exec cell — the telescoping is exact by
   construction, so 5% headroom only covers float summation order *)
let check_level_sum name plan =
  let entries = Profile.snapshot (Plan.digest plan) in
  check Alcotest.bool (name ^ " has cells") true (entries <> []);
  let is_phase p = String.length p > 6 && String.sub p 0 6 = "phase:" in
  let exec = ref 0.0 and levels = ref 0.0 in
  List.iter
    (fun (e : Profile.entry) ->
      if e.Profile.path = "exec" then exec := e.Profile.total_s
      else if not (is_phase e.Profile.path) then
        levels := !levels +. e.Profile.total_s)
    entries;
  check Alcotest.bool (name ^ " exec cell recorded") true (!exec > 0.0);
  let err = Float.abs (!levels -. !exec) /. !exec in
  if err > 0.05 then
    Alcotest.failf "%s: level sum %.9f vs exec %.9f (%.1f%% off)" name !levels
      !exec (100.0 *. err)

let sum_matches_exec ?specialize name =
  Pool.with_pool (fun pool ->
      with_profiling (fun () ->
          let plan, _ = run_profiled ?specialize pool (find name) in
          check_level_sum name plan))

let test_sum_specializer () = sum_matches_exec "matmul"
let test_sum_walker () = sum_matches_exec ~specialize:false "prl"

(* prl on the Specializer adds the per-call unpack of its record inputs,
   a coordinator segment like write-back *)
let test_sum_specializer_prl () =
  Pool.with_pool (fun pool ->
      with_profiling (fun () ->
          let plan, _ = run_profiled pool (find "prl") in
          check_level_sum "prl" plan;
          let paths =
            List.map (fun e -> e.Profile.path) (Profile.snapshot (Plan.digest plan))
          in
          check Alcotest.bool "prl ran on the specializer" true
            (List.mem "phase:specializer.run" paths && List.mem "unpack" paths)))

(* the default pool has no worker domain on a one-core host, so pin a
   pool with workers: every parallel job of a profiled run must flush its
   own level times without moving the outputs or breaking the sum. prl's
   custom operator runs its row across the distributed cells, with the
   tree range, or the timed Accumulate level, looping around it *)
let test_parallel_jobs_profiled () =
  let is_tree = function Plan.Tree_reduce _ -> true | _ -> false in
  let is_dist = function Plan.Distribute _ -> true | _ -> false in
  Pool.with_pool ~num_domains:3 (fun pool ->
      List.iter
        (fun (name, dims, shape_ok) ->
          let w = find name in
          let md = W.to_md_hom w w.W.test_params in
          let schedule md =
            { (host_schedule md) with Schedule.parallel_dims = dims }
          in
          Profile.set_enabled false;
          let _, off = run_profiled ~schedule pool w in
          with_profiling (fun () ->
              let plan, on = run_profiled ~schedule pool w in
              check Alcotest.bool (name ^ " plan shape") true
                (shape_ok plan.Plan.levels);
              check Alcotest.bool (name ^ " bit-identical off vs on") true
                (outputs_equal md off on);
              check_level_sum name plan))
        [ ("dot", [ 0 ], List.exists is_tree);
          ( "matmul",
            [ 0; 1 ],
            fun ls -> List.exists is_dist ls && not (List.exists is_tree ls) );
          ("prl", [ 0; 1 ], fun ls -> List.exists is_dist ls && List.exists is_tree ls);
          ("prl", [ 0 ], fun ls -> List.exists is_dist ls && not (List.exists is_tree ls)) ])

let test_digest_accumulation () =
  Pool.with_pool (fun pool ->
      with_profiling (fun () ->
          let w = find "matvec" in
          let plan, _ = run_profiled pool w in
          let digest = Plan.digest plan in
          let exec_entry () =
            match
              List.find_opt
                (fun e -> e.Profile.path = "exec")
                (Profile.snapshot digest)
            with
            | Some e -> e
            | None -> Alcotest.fail "no exec cell"
          in
          let once = exec_entry () in
          ignore (run_profiled pool w);
          let twice = exec_entry () in
          check Alcotest.int "counts double" (2 * once.Profile.count)
            twice.Profile.count;
          check Alcotest.bool "time accumulates" true
            (twice.Profile.total_s > once.Profile.total_s);
          (* a different digest keys its own cells *)
          let other, _ = run_profiled pool (find "matmul") in
          check Alcotest.bool "second digest registered" true
            (List.mem (Plan.digest other) (Profile.digests ()))))

let test_add_and_time_primitives () =
  with_profiling (fun () ->
      Profile.add ~digest:"d" ~path:"L0" 0.25;
      Profile.add ~digest:"d" ~path:"L0" 0.25;
      Profile.add_n ~digest:"d" ~path:"leaf" ~count:10 1.0;
      let v = Profile.time ~digest:"d" ~path:"timed" (fun () -> 42) in
      check Alcotest.int "time returns" 42 v;
      match Profile.snapshot "d" with
      | [ l0; leaf; timed ] ->
        check Alcotest.string "order is registration" "L0" l0.Profile.path;
        check Alcotest.int "two samples" 2 l0.Profile.count;
        check (Alcotest.float 1e-9) "summed" 0.5 l0.Profile.total_s;
        check Alcotest.int "batched count" 10 leaf.Profile.count;
        check Alcotest.bool "timed nonneg" true (timed.Profile.total_s >= 0.0)
      | es -> Alcotest.failf "expected 3 cells, got %d" (List.length es))

(* the model side of the tree view: fractions are a distribution and the
   paths speak the profiler's vocabulary (L<i> in level order, then leaf) *)
let test_level_attribution_paths () =
  let w = find "matmul" in
  let md = W.to_md_hom w w.W.test_params in
  let plan =
    match Plan.build md cpu (host_schedule md) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let shares = Cost.level_attribution plan in
  let total = List.fold_left (fun a s -> a +. s.Cost.ls_fraction) 0.0 shares in
  check (Alcotest.float 1e-9) "fractions sum to 1" 1.0 total;
  List.iter
    (fun s ->
      check Alcotest.bool "fraction in (0,1]" true
        (s.Cost.ls_fraction > 0.0 && s.Cost.ls_fraction <= 1.0))
    shares;
  let expected_paths =
    List.mapi (fun i _ -> "L" ^ string_of_int i) plan.Plan.levels @ [ "leaf" ]
  in
  check
    Alcotest.(list string)
    "paths match profiler addressing" expected_paths
    (List.map (fun s -> s.Cost.ls_path) shares)

let suite =
  let tc = Alcotest.test_case in
  ( "profile",
    [ tc "disabled mode creates no cells" `Quick test_disabled_no_cells;
      tc "catalogue bit-identity off vs on" `Slow test_catalogue_bit_identity;
      tc "level sum = exec cell (specializer)" `Quick test_sum_specializer;
      tc "level sum = exec cell (walker)" `Quick test_sum_walker;
      tc "level sum = exec cell (prl specializer)" `Quick test_sum_specializer_prl;
      tc "profiled parallel jobs" `Quick test_parallel_jobs_profiled;
      tc "digest-keyed accumulation" `Quick test_digest_accumulation;
      tc "add/add_n/time primitives" `Quick test_add_and_time_primitives;
      tc "cost attribution paths and sum" `Quick test_level_attribution_paths ] )
