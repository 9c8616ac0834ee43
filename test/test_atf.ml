(* Tests for the ATF auto-tuner: parameter spaces, search strategies,
   schedule tuning. *)

module W = Mdh_workloads.Workload
module Device = Mdh_machine.Device
module Cost = Mdh_lowering.Cost
module Schedule = Mdh_lowering.Schedule
module Scalar = Mdh_tensor.Scalar
module Combine = Mdh_combine.Combine
module Expr = Mdh_expr.Expr
module D = Mdh_directive.Directive
module Transform = Mdh_directive.Transform
open Mdh_atf

let check = Alcotest.check

let cpu = Device.xeon6140_like

(* a small space with a genuine interdependence: y <= x *)
let dependent_space () =
  Space.make
    [ Param.independent "x" [ 1; 2; 3 ];
      Param.dependent "y" (fun config ->
          List.filter (fun v -> v <= Param.value config "x") [ 1; 2; 3 ]) ]

let test_enumerate_respects_constraints () =
  let configs = Space.enumerate (dependent_space ()) in
  check Alcotest.int "count" 6 (List.length configs);
  List.iter
    (fun c ->
      check Alcotest.bool "y <= x" true (Param.value c "y" <= Param.value c "x"))
    configs

let test_enumerate_cap () =
  let sp = Space.make [ Param.independent "x" (List.init 1000 Fun.id) ] in
  check Alcotest.int "capped" 10 (List.length (Space.enumerate ~cap:10 sp))

let test_duplicate_params_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Space.make: duplicate parameter names")
    (fun () -> ignore (Space.make [ Param.independent "x" [ 1 ]; Param.independent "x" [ 2 ] ]))

let test_sample_valid () =
  let sp = dependent_space () in
  let rng = Mdh_support.Rng.create 3 in
  for _ = 1 to 100 do
    match Space.sample sp rng with
    | None -> Alcotest.fail "dead end in a live space"
    | Some c -> check Alcotest.bool "valid" true (Param.value c "y" <= Param.value c "x")
  done

let test_sample_dead_end () =
  let sp =
    Space.make
      [ Param.independent "x" [ 1 ];
        Param.dependent "y" (fun _ -> []) ]
  in
  check Alcotest.bool "dead end" true (Space.sample sp (Mdh_support.Rng.create 1) = None)

let test_neighbour_stays_valid () =
  let sp = dependent_space () in
  let rng = Mdh_support.Rng.create 5 in
  let config = ref (Option.get (Space.sample sp rng)) in
  for _ = 1 to 200 do
    config := Space.neighbour sp rng !config;
    check Alcotest.bool "valid" true
      (Param.value !config "y" <= Param.value !config "x")
  done

(* quadratic bowl over the space: minimum at x=2,y=2 *)
let bowl config =
  let x = Param.value config "x" and y = Param.value config "y" in
  Some (float_of_int (((x - 2) * (x - 2)) + ((y - 2) * (y - 2))))

let test_exhaustive_finds_optimum () =
  match Search.exhaustive (dependent_space ()) ~cost:bowl with
  | None -> Alcotest.fail "no result"
  | Some r ->
    check (Alcotest.float 1e-9) "optimum" 0.0 r.Search.best_cost;
    check Alcotest.int "all evaluated" 6 r.Search.evaluations

let test_random_search_improves () =
  match Search.random_search (dependent_space ()) ~seed:7 ~budget:50 ~cost:bowl with
  | None -> Alcotest.fail "no result"
  | Some r ->
    check Alcotest.bool "found optimum in tiny space" true (r.Search.best_cost <= 1.0);
    check Alcotest.bool "trace monotone" true
      (let costs = List.map snd r.Search.trace in
       List.for_all2 (fun a b -> b <= a)
         (List.filteri (fun i _ -> i < List.length costs - 1) costs)
         (List.tl costs))

(* one fresh annealing chain, run to completion *)
let anneal sp ~seed ~budget ~cost =
  Search.chain_result (Search.anneal_chain sp ~budget ~cost (Search.chain_start ~seed))

let test_annealing_finds_optimum () =
  match anneal (dependent_space ()) ~seed:11 ~budget:100 ~cost:bowl with
  | None -> Alcotest.fail "no result"
  | Some r -> check (Alcotest.float 1e-9) "optimum" 0.0 r.Search.best_cost

let test_search_deterministic () =
  let run () =
    Option.get (anneal (dependent_space ()) ~seed:13 ~budget:60 ~cost:bowl)
  in
  let a = run () and b = run () in
  check Alcotest.bool "same best" true (a.Search.best = b.Search.best);
  check Alcotest.int "same evals" a.Search.evaluations b.Search.evaluations

let test_search_skips_illegal () =
  let cost config = if Param.value config "x" = 2 then None else bowl config in
  match Search.exhaustive (dependent_space ()) ~cost with
  | None -> Alcotest.fail "no result"
  | Some r -> check Alcotest.bool "optimum avoids illegal" true (Param.value r.Search.best "x" <> 2)

let test_all_illegal_yields_none () =
  check Alcotest.bool "none" true
    (Search.exhaustive (dependent_space ()) ~cost:(fun _ -> None) = None)

(* --- tuning real workloads --- *)

let test_tune_improves_on_default () =
  let md = W.to_md_hom Mdh_workloads.Linalg.matmul [ ("I", 1024); ("J", 1024); ("K", 1024) ] in
  let default_cost =
    match Cost.seconds md cpu Cost.tuned_codegen (Mdh_lowering.Lower.mdh_default md cpu) with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  match Tuner.tune ~budget:200 md cpu Cost.tuned_codegen with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check Alcotest.bool "tuned <= default" true (t.Tuner.estimated_s <= default_cost);
    check Alcotest.bool "legal" true (Schedule.legal md cpu t.Tuner.schedule = Ok ())

let test_tune_parallelises_reduction_for_dot () =
  let md = W.to_md_hom Mdh_workloads.Linalg.dot [ ("K", 1 lsl 24) ] in
  match Tuner.tune ~budget:100 md Device.a100_like Cost.tuned_codegen with
  | Error e -> Alcotest.fail e
  | Ok t ->
    (* the only way to use the GPU on dot is to parallelise the reduction *)
    check (Alcotest.list Alcotest.int) "reduction parallel" [ 0 ]
      t.Tuner.schedule.Schedule.parallel_dims

let test_tune_respects_parallel_options () =
  let md = W.to_md_hom Mdh_workloads.Linalg.dot [ ("K", 65536) ] in
  match Tuner.tune ~parallel_options:[ [] ] ~budget:50 md cpu Cost.tuned_codegen with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check (Alcotest.list Alcotest.int) "restricted" []
      t.Tuner.schedule.Schedule.parallel_dims

let test_random_search_mostly_illegal_space () =
  (* only x = 3 admits a y, so ~2/3 of samples dead-end: the draw loop must
     stop at the 10x-budget attempt cap instead of spinning *)
  let sp =
    Space.make
      [ Param.independent "x" [ 1; 2; 3 ];
        Param.dependent "y" (fun config ->
            if Param.value config "x" = 3 then [ 0 ] else []) ]
  in
  let budget = 30 in
  match Search.random_search sp ~seed:5 ~budget ~cost:(fun _ -> Some 1.0) with
  | None -> Alcotest.fail "legal configurations exist"
  | Some r ->
    check Alcotest.bool "within budget" true (r.Search.evaluations <= budget);
    check Alcotest.bool "found some" true (r.Search.evaluations > 0);
    check Alcotest.int "x pinned" 3 (Param.value r.Search.best "x")

let test_random_search_all_dead_ends () =
  let sp =
    Space.make
      [ Param.independent "x" [ 1 ]; Param.dependent "y" (fun _ -> []) ]
  in
  check Alcotest.bool "terminates with none" true
    (Search.random_search sp ~seed:1 ~budget:20 ~cost:(fun _ -> Some 1.0) = None)

let test_annealing_all_neighbours_illegal () =
  (* once the chain finds the single legal configuration, every neighbour
     is rejected by the cost model: the walk must still consume its budget
     and terminate, reporting the legal point *)
  let sp = dependent_space () in
  let legal = [ ("x", 2); ("y", 1) ] in
  let cost config = if config = legal then Some 1.0 else None in
  match anneal sp ~seed:2 ~budget:40 ~cost with
  | None -> Alcotest.fail "the legal configuration is reachable"
  | Some r ->
    check Alcotest.bool "best is the only legal point" true (r.Search.best = legal);
    check Alcotest.bool "budget consumed, then stopped" true (r.Search.evaluations >= 40)

let test_evaluate_batch_order_and_parity () =
  Mdh_runtime.Pool.with_pool ~num_domains:3 (fun pool ->
      let configs =
        Array.init 100 (fun i -> [ ("x", (i mod 3) + 1); ("y", 1) ])
      in
      let cost config =
        let x = Param.value config "x" in
        if x = 2 then None else Some (float_of_int x)
      in
      let seq = Search.evaluate_batch ~cost configs in
      let par = Search.evaluate_batch ~pool ~cost configs in
      check Alcotest.bool "parallel = sequential, in order" true (seq = par))

let test_portfolio_matches_sequential_and_sums_evals () =
  let seeds = [ 17; 18; 19; 20 ] in
  let run pool =
    let chains =
      Array.of_list (List.map (fun seed -> Search.chain_start ~seed) seeds)
    in
    match
      Search.anneal_portfolio ?pool (dependent_space ()) ~chains ~budget:25
        ~cost:bowl
    with
    | Search.Portfolio_done r -> r
    | Search.Portfolio_paused _ -> Alcotest.fail "paused without a stop predicate"
  in
  let seq = run None in
  Mdh_runtime.Pool.with_pool ~num_domains:3 (fun pool ->
      let par = run (Some pool) in
      match (seq, par) with
      | Some a, Some b ->
        check Alcotest.bool "same best" true (a.Search.best = b.Search.best);
        check (Alcotest.float 1e-12) "same cost" a.Search.best_cost b.Search.best_cost;
        check Alcotest.int "evals summed over chains" a.Search.evaluations
          b.Search.evaluations;
        check Alcotest.bool "all chains counted" true (a.Search.evaluations >= 25 * 4)
      | _ -> Alcotest.fail "portfolio found no result")

let test_tune_deterministic () =
  let md = W.to_md_hom Mdh_workloads.Linalg.matvec [ ("I", 4096); ("K", 4096) ] in
  let run () =
    match Tuner.tune ~budget:80 ~seed:3 md cpu Cost.tuned_codegen with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let a = run () and b = run () in
  check Alcotest.bool "same schedule" true (a.Tuner.schedule = b.Tuner.schedule)

let test_tune_parallel_matches_sequential_all_workloads () =
  (* the acceptance contract: for every catalogue workload, the parallel
     tuner (pool + multi-chain portfolio) picks the bit-identical schedule
     the sequential tuner picks for the same seed and chain count *)
  Mdh_runtime.Pool.with_pool ~num_domains:3 (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          let tune pool =
            match
              Tuner.tune ~budget:120 ~seed:5 ~chains:3 ?pool md cpu
                Cost.tuned_codegen
            with
            | Ok t -> t
            | Error e -> Alcotest.failf "%s: %s" w.W.wl_name e
          in
          let seq = tune None and par = tune (Some pool) in
          check Alcotest.bool (w.W.wl_name ^ ": same schedule") true
            (seq.Tuner.schedule = par.Tuner.schedule);
          check (Alcotest.float 1e-12) (w.W.wl_name ^ ": same cost")
            seq.Tuner.estimated_s par.Tuner.estimated_s;
          check Alcotest.int (w.W.wl_name ^ ": same evaluations")
            seq.Tuner.search.Search.evaluations par.Tuner.search.Search.evaluations)
        Mdh_workloads.Catalog.all)

let with_temp_db f =
  let path = Filename.temp_file "mdh-tuning" ".db" in
  Sys.remove path;
  let db = Tuning_db.open_db path in
  Fun.protect ~finally:(fun () -> Tuning_db.clear db) (fun () -> f db)

let test_tuning_db_roundtrip () =
  with_temp_db (fun db ->
      let md = W.to_md_hom Mdh_workloads.Linalg.matvec [ ("I", 2048); ("K", 2048) ] in
      let tune db = Tuner.tune ~budget:60 ~seed:3 ~db md cpu Cost.tuned_codegen in
      let cold =
        match tune db with Ok t -> t | Error e -> Alcotest.fail e
      in
      check Alcotest.bool "cold run searches" false cold.Tuner.from_db;
      check Alcotest.bool "cold run evaluates" true
        (cold.Tuner.search.Search.evaluations > 0);
      let warm =
        match tune db with Ok t -> t | Error e -> Alcotest.fail e
      in
      check Alcotest.bool "warm run recalls" true warm.Tuner.from_db;
      check Alcotest.int "warm run: zero search evaluations" 0
        warm.Tuner.search.Search.evaluations;
      check Alcotest.bool "same schedule" true
        (cold.Tuner.schedule = warm.Tuner.schedule);
      check (Alcotest.float 1e-12) "same cost" cold.Tuner.estimated_s
        warm.Tuner.estimated_s;
      (* persistence: a fresh handle on the same file still recalls *)
      let reloaded =
        match
          tune
            (Tuning_db.open_db
               (Option.get (Tuning_db.path db)))
        with
        | Ok t -> t
        | Error e -> Alcotest.fail e
      in
      check Alcotest.bool "recalled across reload" true reloaded.Tuner.from_db;
      check Alcotest.bool "reloaded schedule identical" true
        (cold.Tuner.schedule = reloaded.Tuner.schedule))

(* A reduction of a 64x64 input over two pw dimensions, both folded by
   an operator named [avg]: its declared associativity decides whether
   the tuner may split a dimension across parallel units. *)
let avg_md ~associative body =
  let avg =
    Combine.of_body ~name:"avg" ~ty:Scalar.Fp64 ~associative ~commutative:true body
  in
  Transform.to_md_hom_exn
    (D.make ~name:"AvgPair"
       ~out:[ D.buffer "r" Scalar.Fp64 ]
       ~inp:[ D.buffer ~shape:[| 64; 64 |] "x" Scalar.Fp64 ]
       ~combine_ops:[ Combine.pw avg; Combine.pw avg ]
       (D.for_ "i" 64
          (D.for_ "k" 64
             (D.body
                [ D.assign "r" [ Expr.int 0 ] (Expr.read "x" [ Expr.idx "i"; Expr.idx "k" ]) ]))))

let test_tuning_db_key_distinguishes_searches () =
  with_temp_db (fun db ->
      let tuned md =
        match Tuner.tune ~budget:50 ~seed:3 ~db md cpu Cost.tuned_codegen with
        | Ok t -> t
        | Error e -> Alcotest.fail e
      in
      let md = W.to_md_hom Mdh_workloads.Linalg.matvec [ ("I", 1024); ("K", 1024) ] in
      ignore (tuned md);
      (* a different seed/budget/device must not hit the stored entry *)
      List.iter
        (fun t ->
          check Alcotest.bool "distinct key misses" false
            (match t with Ok t -> t.Tuner.from_db | Error _ -> false))
        [ Tuner.tune ~budget:50 ~seed:4 ~db md cpu Cost.tuned_codegen;
          Tuner.tune ~budget:51 ~seed:3 ~db md cpu Cost.tuned_codegen;
          Tuner.tune ~budget:50 ~seed:3 ~db md Device.a100_like Cost.tuned_codegen ];
      (* nor may an operator that shares a name and a body but not a
         declared algebra, or a name but not a body: each computation
         prints the same *)
      let half = Expr.((var "lhs" + var "rhs") / f64 2.0) in
      ignore (tuned (avg_md ~associative:true half));
      List.iter
        (fun (what, md) ->
          let t = tuned md in
          check Alcotest.bool (what ^ ": distinct key misses") false t.Tuner.from_db;
          check Alcotest.bool (what ^ ": tuned schedule builds") true
            (Result.is_ok (Mdh_lowering.Plan.build md cpu t.Tuner.schedule)))
        [ ("avg declared not associative", avg_md ~associative:false half);
          ( "avg with another body",
            avg_md ~associative:true Expr.(if_ (var "lhs" >= var "rhs") (var "lhs") (var "rhs")) ) ])

let test_tuning_db_tolerates_garbage () =
  let path = Filename.temp_file "mdh-tuning" ".db" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "not a db line\nkey\tnot-a-float\ttiles=1\n");
  let db = Tuning_db.open_db path in
  Fun.protect ~finally:(fun () -> Tuning_db.clear db) (fun () ->
      check Alcotest.int "garbage ignored" 0 (Tuning_db.size db);
      let md = W.to_md_hom Mdh_workloads.Linalg.dot [ ("K", 65536) ] in
      match Tuner.tune ~budget:40 ~db md cpu Cost.tuned_codegen with
      | Ok t -> check Alcotest.bool "still tunes" false t.Tuner.from_db
      | Error e -> Alcotest.fail e)

(* regression: [Unix.lockf] is held per-process, so before the db's
   in-process io mutex, a store's O_APPEND write racing another domain's
   compact could land on the pre-rename inode and vanish. Hammer the
   same handle from several domains, with compactions interleaved, and
   require every entry to survive on disk. *)
let test_tuning_db_concurrent_writers_keep_entries () =
  with_temp_db (fun db ->
      let md = W.to_md_hom Mdh_workloads.Linalg.dot [ ("K", 1024) ] in
      let sched = Schedule.sequential md in
      let n_domains = 4 and per_domain = 24 in
      let writer d () =
        for i = 0 to per_domain - 1 do
          Tuning_db.store db (Printf.sprintf "key-%d-%d" d i) sched
            (float_of_int ((d * per_domain) + i));
          if i mod 5 = 0 then Tuning_db.compact db
        done
      in
      let domains = List.init n_domains (fun d -> Domain.spawn (writer d)) in
      List.iter Domain.join domains;
      Tuning_db.compact db;
      let expected = n_domains * per_domain in
      check Alcotest.int "all entries in memory" expected (Tuning_db.size db);
      (* the real assertion: the *file* kept every line too *)
      let reloaded = Tuning_db.open_db (Option.get (Tuning_db.path db)) in
      check Alcotest.int "all entries survived on disk" expected
        (Tuning_db.size reloaded);
      List.iter
        (fun d ->
          for i = 0 to per_domain - 1 do
            let key = Printf.sprintf "key-%d-%d" d i in
            match Tuning_db.find reloaded key with
            | Some (_, cost) ->
              check (Alcotest.float 1e-12)
                (key ^ " cost")
                (float_of_int ((d * per_domain) + i))
                cost
            | None -> Alcotest.fail ("lost entry " ^ key)
          done)
        (List.init n_domains Fun.id))

let test_cost_cache_absorbs_repeat_tuning () =
  let md = W.to_md_hom Mdh_workloads.Linalg.matmul [ ("I", 512); ("J", 512); ("K", 512) ] in
  let tune () =
    match Tuner.tune ~budget:80 ~seed:11 md cpu Cost.tuned_codegen with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let before = Cost_cache.stats () in
  let a = tune () in
  let cold = Cost_cache.stats () in
  check Alcotest.bool "cold run computes" true
    (cold.Cost_cache.n_misses > before.Cost_cache.n_misses);
  let b = tune () in
  let warm = Cost_cache.stats () in
  check Alcotest.bool "repeat run is all hits" true
    (warm.Cost_cache.n_misses = cold.Cost_cache.n_misses);
  check Alcotest.bool "hits grew" true
    (warm.Cost_cache.n_hits > cold.Cost_cache.n_hits);
  check Alcotest.bool "cached runs agree" true (a.Tuner.schedule = b.Tuner.schedule)

(* the in-memory caches may save work but never change an answer: for
   every catalogue workload and device, tuning with caching on (cold, then
   warm) and off picks the same schedule at the same estimate after the
   same number of evaluations, and running the tuned cpu schedule on one
   pool gives bitwise-equal outputs *)
let test_caches_never_change_an_answer () =
  let with_caching on f =
    Mdh_support.Memo.set_caching on;
    Fun.protect ~finally:(fun () -> Mdh_support.Memo.set_caching true) f
  in
  (* each is compared against a cold run with caching on; emptied tables
     make that first run compute every entry it then stores *)
  let reruns = [ ("warm", true); ("uncached", false) ] in
  Cost_cache.clear ();
  Mdh_runtime.Pool.with_pool ~num_domains:2 (fun pool ->
      List.iter
        (fun (w : W.t) ->
          let md = W.to_md_hom w w.W.test_params in
          List.iter
            (fun dev ->
              let name = w.W.wl_name ^ " on " ^ dev.Device.device_name in
              let tune on =
                with_caching on (fun () ->
                    match
                      Tuner.tune ~saturate:true ~budget:60
                        ~db:(Tuning_db.in_memory ()) md dev Cost.tuned_codegen
                    with
                    | Ok t -> t
                    | Error e -> Alcotest.fail (name ^ ": " ^ e))
              in
              let cold = tune true in
              List.iter
                (fun (mode, on) ->
                  let t = tune on in
                  let what = Printf.sprintf "%s: %s = cold " name mode in
                  check Alcotest.bool (what ^ "schedule") true
                    (t.Tuner.schedule = cold.Tuner.schedule);
                  check (Alcotest.float 0.0) (what ^ "estimate")
                    cold.Tuner.estimated_s t.Tuner.estimated_s;
                  check Alcotest.int (what ^ "evaluations")
                    cold.Tuner.search.Search.evaluations
                    t.Tuner.search.Search.evaluations)
                reruns;
              if dev == cpu then begin
                (* the tuned schedule belongs to the saturated computation;
                   pinned to the pool's one layer it runs on the host *)
                let md' = fst (Mdh_rewrite.Rewrite.saturate_outputs md) in
                let sched = { cold.Tuner.schedule with Schedule.used_layers = [ 0 ] } in
                let run on =
                  with_caching on (fun () ->
                      let env = w.W.gen w.W.test_params ~seed:5 in
                      match Mdh_runtime.Exec.run pool md' sched env with
                      | Ok env' -> env'
                      | Error e -> Alcotest.fail (name ^ ": " ^ e))
                in
                let cold_out = run true in
                List.iter
                  (fun (mode, on) ->
                    let out = run on in
                    List.iter
                      (fun (o : Mdh_core.Md_hom.output) ->
                        let data e =
                          Mdh_tensor.Buffer.data
                            (Mdh_tensor.Buffer.env_find e o.Mdh_core.Md_hom.out_name)
                        in
                        check Test_util.dense
                          (Printf.sprintf "%s: %s %s = cold" name mode
                             o.Mdh_core.Md_hom.out_name)
                          (data cold_out) (data out))
                      md'.Mdh_core.Md_hom.outputs)
                  reruns
              end)
            [ Device.a100_like; cpu ])
        Mdh_workloads.Catalog.all)

let suite =
  let tc = Alcotest.test_case in
  ( "atf",
    [ tc "enumerate respects constraints" `Quick test_enumerate_respects_constraints;
      tc "enumerate cap" `Quick test_enumerate_cap;
      tc "duplicate params rejected" `Quick test_duplicate_params_rejected;
      tc "sample valid" `Quick test_sample_valid;
      tc "sample dead end" `Quick test_sample_dead_end;
      tc "neighbour stays valid" `Quick test_neighbour_stays_valid;
      tc "exhaustive optimum" `Quick test_exhaustive_finds_optimum;
      tc "random search improves" `Quick test_random_search_improves;
      tc "annealing optimum" `Quick test_annealing_finds_optimum;
      tc "search deterministic" `Quick test_search_deterministic;
      tc "search skips illegal" `Quick test_search_skips_illegal;
      tc "all illegal yields none" `Quick test_all_illegal_yields_none;
      tc "random search survives mostly-illegal space" `Quick
        test_random_search_mostly_illegal_space;
      tc "random search all dead ends" `Quick test_random_search_all_dead_ends;
      tc "annealing terminates with illegal neighbours" `Quick
        test_annealing_all_neighbours_illegal;
      tc "evaluate_batch parallel parity" `Quick test_evaluate_batch_order_and_parity;
      tc "annealing portfolio parallel parity" `Quick
        test_portfolio_matches_sequential_and_sums_evals;
      tc "tune improves on default" `Quick test_tune_improves_on_default;
      tc "tune parallelises dot reduction" `Quick test_tune_parallelises_reduction_for_dot;
      tc "tune respects parallel options" `Quick test_tune_respects_parallel_options;
      tc "tune deterministic" `Quick test_tune_deterministic;
      tc "parallel tuner = sequential tuner (all workloads)" `Quick
        test_tune_parallel_matches_sequential_all_workloads;
      tc "tuning db roundtrip" `Quick test_tuning_db_roundtrip;
      tc "tuning db key distinguishes searches" `Quick
        test_tuning_db_key_distinguishes_searches;
      tc "tuning db tolerates garbage" `Quick test_tuning_db_tolerates_garbage;
      tc "tuning db concurrent writers keep entries" `Quick
        test_tuning_db_concurrent_writers_keep_entries;
      tc "cost cache absorbs repeat tuning" `Quick
        test_cost_cache_absorbs_repeat_tuning;
      tc "caches never change an answer (all workloads)" `Quick
        test_caches_never_change_an_answer ] )
