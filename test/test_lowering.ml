(* Tests for schedules, footprints, the cost model, and simulation. *)

module Scalar = Mdh_tensor.Scalar
module Buffer = Mdh_tensor.Buffer
module Combine = Mdh_combine.Combine
module Device = Mdh_machine.Device
module W = Mdh_workloads.Workload
module Catalog = Mdh_workloads.Catalog
open Mdh_lowering

let check = Alcotest.check

let cpu = Device.xeon6140_like
let gpu = Device.a100_like

let matvec_md ?(i = 64) ?(k = 64) () =
  W.to_md_hom Mdh_workloads.Linalg.matvec [ ("I", i); ("K", k) ]

let matmul_md ?(n = 256) () =
  W.to_md_hom Mdh_workloads.Linalg.matmul [ ("I", n); ("J", n); ("K", n) ]

let prl_md () = W.to_md_hom Mdh_workloads.Prl.prl [ ("N", 64); ("I", 128) ]

(* --- Schedule --- *)

let test_sequential_is_legal () =
  let md = matvec_md () in
  check Alcotest.bool "legal" true (Schedule.legal md cpu (Schedule.sequential md) = Ok ())

let test_legal_rejects_bad_arity () =
  let md = matvec_md () in
  let s = { Schedule.tile_sizes = [| 4 |]; parallel_dims = []; used_layers = [] } in
  check Alcotest.bool "arity" true (Result.is_error (Schedule.legal md cpu s))

let test_legal_rejects_nonassociative_parallel_reduction () =
  (* a pw dimension with a non-associative custom function must not be
     parallelised *)
  let non_assoc = Combine.custom ~name:"sub" ~associative:false Scalar.sub in
  let md = matvec_md () in
  let md =
    { md with Mdh_core.Md_hom.combine_ops = [| Combine.cc; Combine.pw non_assoc |] }
  in
  let s =
    { Schedule.tile_sizes = [| 8; 8 |]; parallel_dims = [ 1 ]; used_layers = [ 0 ] }
  in
  check Alcotest.bool "rejected" true (Result.is_error (Schedule.legal md cpu s));
  (* the associative builtin is fine *)
  let md_ok = matvec_md () in
  check Alcotest.bool "accepted" true (Schedule.legal md_ok cpu s = Ok ())

let test_schedule_clamp () =
  let md = matvec_md ~i:8 ~k:8 () in
  let s =
    { Schedule.tile_sizes = [| 100; 2 |]; parallel_dims = []; used_layers = [] }
  in
  check (Alcotest.array Alcotest.int) "clamped" [| 8; 2 |]
    (Schedule.clamp md s).Schedule.tile_sizes

(* --- Footprint --- *)

let test_footprint_matvec_tile () =
  let md = matvec_md ~i:64 ~k:64 () in
  (* a 8x8 tile reads an 8x8 block of M (256 B) and 8 elements of v (32 B) *)
  check Alcotest.int "input bytes" (256 + 32)
    (Footprint.tile_input_bytes md ~box:[| 8; 8 |]);
  (* per-tile output: 8 rows x 1 collapsed column x 4 B *)
  check Alcotest.int "output bytes" 32 (Footprint.tile_output_bytes md ~box:[| 8; 8 |])

let test_footprint_stencil_union () =
  (* 3 shifted accesses to the same buffer must be unioned, not summed *)
  let md =
    W.to_md_hom Mdh_workloads.Stencils.gaussian_2d [ ("N", 16); ("M", 16) ]
  in
  let bytes = Footprint.tile_input_bytes md ~box:[| 4; 4 |] in
  (* union of the 3x3 family over a 4x4 tile: 6x6 elements x 4 B *)
  check Alcotest.int "union" (6 * 6 * 4) bytes

let test_naive_vs_compulsory () =
  let md = matmul_md ~n:64 () in
  check Alcotest.bool "naive >> compulsory" true
    (Footprint.naive_read_bytes md > 10.0 *. Footprint.compulsory_bytes md)

(* --- Cost model: qualitative laws --- *)

let seconds_exn md dev cg s =
  match Cost.seconds md dev cg s with
  | Ok x -> x
  | Error msg -> Alcotest.failf "cost: %s" msg

let test_tiling_beats_untiled_matmul () =
  (* MatMul with cache tiles must beat the untiled schedule on DRAM traffic *)
  let md = matmul_md ~n:1024 () in
  let untiled =
    { Schedule.tile_sizes = [| 1024; 1024; 1024 |]; parallel_dims = [ 0; 1 ];
      used_layers = [ 0; 1 ] }
  in
  let tiled =
    { untiled with Schedule.tile_sizes = [| 32; 32; 32 |] }
  in
  let t_untiled = seconds_exn md cpu Cost.plain_codegen untiled in
  let t_tiled = seconds_exn md cpu Cost.plain_codegen tiled in
  check Alcotest.bool "tiling wins" true (t_tiled *. 2.0 < t_untiled)

let test_parallelism_helps () =
  let md = matmul_md ~n:512 () in
  let seq = Schedule.sequential md in
  let par =
    { Schedule.tile_sizes = [| 64; 64; 64 |]; parallel_dims = [ 0; 1 ];
      used_layers = [ 0; 1 ] }
  in
  check Alcotest.bool "parallel wins" true
    (seconds_exn md cpu Cost.tuned_codegen par
    < seconds_exn md cpu Cost.tuned_codegen seq /. 4.0)

let test_reduction_parallelisation_helps_dot () =
  (* Dot on the GPU: the only dimension is the reduction; a system that
     cannot parallelise it uses one thread *)
  let md = W.to_md_hom Mdh_workloads.Linalg.dot [ ("K", 1 lsl 24) ] in
  let serial_red =
    { Schedule.tile_sizes = [| 1 lsl 24 |]; parallel_dims = []; used_layers = [ 0; 1 ] }
  in
  let par_red = { serial_red with Schedule.parallel_dims = [ 0 ] } in
  let t_serial = seconds_exn md gpu Cost.tuned_codegen serial_red in
  let t_par = seconds_exn md gpu Cost.tuned_codegen par_red in
  check Alcotest.bool "reduction parallelisation essential" true
    (t_par *. 100.0 < t_serial)

let test_underutilisation_prl_inp1_gpu () =
  (* PRL shape study (Section 5.2): with only the small cc dimension
     parallel (OpenACC-style), Inp.1 (2^10 rows) underuses the GPU badly;
     parallelising the reduction too recovers it *)
  let mk n = W.to_md_hom Mdh_workloads.Prl.prl [ ("N", n); ("I", 1 lsl 15) ] in
  let md1 = mk (1 lsl 10) in
  let cc_only md =
    { Schedule.tile_sizes = Array.copy md.Mdh_core.Md_hom.sizes; parallel_dims = [ 0 ];
      used_layers = [ 0; 1 ] }
  in
  let both md = { (cc_only md) with Schedule.parallel_dims = [ 0; 1 ] } in
  let slowdown md =
    seconds_exn md gpu Cost.plain_codegen (cc_only md)
    /. seconds_exn md gpu Cost.tuned_codegen (both md)
  in
  let md2 = mk (1 lsl 15) in
  check Alcotest.bool "Inp1 suffers much more than Inp2" true
    (slowdown md1 > 4.0 *. slowdown md2)

let test_cost_rejects_illegal () =
  let md = matvec_md () in
  let bad = { Schedule.tile_sizes = [| 0; 1 |]; parallel_dims = []; used_layers = [] } in
  check Alcotest.bool "illegal" true (Result.is_error (Cost.seconds md cpu Cost.tuned_codegen bad))

let test_transfers_add_time () =
  let md = matvec_md ~i:4096 ~k:4096 () in
  let s = Lower.mdh_default md gpu in
  let without = seconds_exn md gpu Cost.tuned_codegen s in
  let wth =
    match Cost.seconds ~include_transfers:true md gpu Cost.tuned_codegen s with
    | Ok x -> x
    | Error e -> Alcotest.fail e
  in
  check Alcotest.bool "transfers dominate matvec" true (wth > 2.0 *. without)

(* --- Lower --- *)

let test_mdh_default_legal () =
  List.iter
    (fun (w : W.t) ->
      let md = W.to_md_hom w w.W.test_params in
      List.iter
        (fun dev ->
          let s = Lower.mdh_default md dev in
          check Alcotest.bool
            (Printf.sprintf "%s on %s" w.W.wl_name dev.Device.device_name)
            true
            (Schedule.legal md dev s = Ok ()))
        [ cpu; gpu ])
    Catalog.all

let test_tile_options () =
  let md = matvec_md ~i:12 ~k:64 () in
  check (Alcotest.list Alcotest.int) "mixed extent" [ 1; 2; 4; 8; 12 ]
    (Lower.tile_options md ~dim:0);
  check Alcotest.bool "pow2 extent includes extent once" true
    (Lower.tile_options md ~dim:1 = [ 1; 2; 4; 8; 16; 32; 64 ])

let test_parallel_dim_options () =
  let md = matvec_md () in
  let options = Lower.parallel_dim_options md in
  (* dims {0 cc, 1 pw-add}: subsets of {0,1} minus empty = 3 *)
  check Alcotest.int "subsets" 3 (List.length options);
  check Alcotest.bool "largest first" true (List.hd options = [ 0; 1 ])

let test_best_of_picks_cheapest () =
  let md = matmul_md ~n:512 () in
  let a = Schedule.sequential md in
  let b =
    { Schedule.tile_sizes = [| 64; 64; 64 |]; parallel_dims = [ 0; 1 ];
      used_layers = [ 0; 1 ] }
  in
  match Lower.best_of md cpu Cost.tuned_codegen [ a; b ] with
  | Some (best, _) -> check Alcotest.bool "tiled parallel wins" true (best == b)
  | None -> Alcotest.fail "no schedule"

let test_schedule_string_roundtrip () =
  let examples =
    [ { Schedule.tile_sizes = [| 16; 8 |]; parallel_dims = [ 0 ]; used_layers = [ 0; 1 ] };
      { Schedule.tile_sizes = [| 4 |]; parallel_dims = []; used_layers = [] };
      { Schedule.tile_sizes = [| 1; 2; 3; 4; 5; 6; 7 |]; parallel_dims = [ 0; 3; 6 ];
        used_layers = [ 1 ] } ]
  in
  List.iter
    (fun s ->
      match Schedule.of_string (Schedule.to_string s) with
      | Ok s' -> check Alcotest.bool (Schedule.to_string s) true (s = s')
      | Error e -> Alcotest.fail e)
    examples;
  check Alcotest.bool "garbage rejected" true
    (Result.is_error (Schedule.of_string "not a schedule"))

(* --- Plan IR --- *)

let test_plan_matvec_structure () =
  let md = matvec_md ~i:64 ~k:32 () in
  let sched =
    { Schedule.tile_sizes = [| 64; 32 |]; parallel_dims = [ 0; 1 ];
      used_layers = [ 0; 1 ] }
  in
  match Plan.build md gpu sched with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    check Alcotest.int "3 levels + point" 3 (Plan.depth plan);
    (match plan.Plan.levels with
    | [ Plan.Distribute { dims = [ 0 ]; points = 64; _ };
        Plan.Tree_reduce { dim = 1; op = "pw(add)"; items = 32; _ } ] -> ()
    | _ -> Alcotest.fail "unexpected plan shape");
    check Alcotest.int "parallelism" (64 * 32) (Plan.parallelism plan)

let test_plan_sequential_reduction () =
  let md = matvec_md ~i:64 ~k:32 () in
  let sched =
    { Schedule.tile_sizes = [| 16; 32 |]; parallel_dims = [ 0 ]; used_layers = [ 0 ] }
  in
  match Plan.build md cpu sched with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    (match plan.Plan.levels with
    | [ Plan.Distribute _; Plan.Accumulate { dim = 1; extent = 32; _ } ] -> ()
    | _ -> Alcotest.fail "expected distribute + accumulate");
    (* 64 parallel iterations over 18 usable units: ceil(64/18) = 4 rounds,
       so the achieved parallelism is ceil-div-balanced 64/4 = 16 — the same
       figure Cost.analyse reports as achieved_units *)
    check Alcotest.int "parallelism capped by units" 16 (Plan.parallelism plan)

let test_plan_tiled_sequential () =
  let md = matmul_md ~n:64 () in
  let sched =
    { Schedule.tile_sizes = [| 16; 16; 16 |]; parallel_dims = []; used_layers = [] }
  in
  match Plan.build md cpu sched with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    let tiles =
      List.length
        (List.filter (function Plan.Tile _ -> true | _ -> false) plan.Plan.levels)
    in
    check Alcotest.int "two cc dims tiled" 2 tiles;
    check Alcotest.int "serial" 1 (Plan.parallelism plan)

let test_plan_scan () =
  let md =
    Mdh_workloads.Workload.to_md_hom Mdh_workloads.Mbbs.mbbs [ ("I", 8); ("J", 4) ]
  in
  let sched =
    { Schedule.tile_sizes = [| 8; 4 |]; parallel_dims = [ 1 ]; used_layers = [ 0 ] }
  in
  match Plan.build md cpu sched with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    check Alcotest.bool "has scan level" true
      (List.exists
         (function Plan.Scan { op = "ps(add)"; _ } -> true | _ -> false)
         plan.Plan.levels)

let test_plan_rejects_illegal () =
  let md = matvec_md () in
  let bad = { Schedule.tile_sizes = [| 1 |]; parallel_dims = []; used_layers = [] } in
  check Alcotest.bool "illegal" true (Result.is_error (Plan.build md cpu bad))

let test_plan_sequential_shape () =
  let md = matmul_md ~n:8 () in
  let plan = Plan.sequential md in
  check Alcotest.int "serial" 1 (Plan.parallelism plan);
  check Alcotest.bool "no distribute" true
    (not
       (List.exists
          (function Plan.Distribute _ | Plan.Tree_reduce _ -> true | _ -> false)
          plan.Plan.levels));
  (* roles mirror the combine-operator classification *)
  check Alcotest.bool "k accumulates" true (Plan.role plan 2 = Plan.Role_accumulate);
  check Alcotest.bool "i is seq cc" true (Plan.role plan 0 = Plan.Role_seq)

let test_plan_digest_stable () =
  let md = matvec_md ~i:64 ~k:32 () in
  let sched = Lower.mdh_default md gpu in
  let d1 = Result.map Plan.digest (Plan.build md gpu sched) in
  let d2 = Result.map Plan.digest (Plan.build md gpu sched) in
  check Alcotest.bool "deterministic" true (d1 = d2 && Result.is_ok d1);
  (* a different schedule must not collide on this structure *)
  let other = { sched with Schedule.parallel_dims = [ 0 ] } in
  let d3 = Result.map Plan.digest (Plan.build md gpu other) in
  check Alcotest.bool "schedule-sensitive" true (d1 <> d3)

let test_plan_cache_counters () =
  let md = matvec_md ~i:64 ~k:32 () in
  let sched = Lower.mdh_default md gpu in
  Mdh_lowering.Plan_cache.clear ();
  let s0 = Mdh_lowering.Plan_cache.stats () in
  let p1 = Mdh_lowering.Plan_cache.build md gpu sched in
  let p2 = Mdh_lowering.Plan_cache.build md gpu sched in
  check Alcotest.bool "both ok" true (Result.is_ok p1 && Result.is_ok p2);
  check Alcotest.bool "same plan object" true (p1 == p2 || p1 = p2);
  let s = Mdh_lowering.Plan_cache.stats () in
  check Alcotest.int "one miss" 1 (s.Mdh_lowering.Plan_cache.n_misses - s0.n_misses);
  check Alcotest.int "one hit" 1 (s.Mdh_lowering.Plan_cache.n_hits - s0.n_hits);
  (* with caching off the lookup rebuilds: one more miss, no hit *)
  Mdh_support.Memo.set_caching false;
  let p3 =
    Fun.protect ~finally:(fun () -> Mdh_support.Memo.set_caching true) (fun () ->
        Mdh_lowering.Plan_cache.build md gpu sched)
  in
  check Alcotest.bool "bypass still ok" true (Result.is_ok p3);
  let s' = Mdh_lowering.Plan_cache.stats () in
  check Alcotest.int "no extra hit" 1 (s'.Mdh_lowering.Plan_cache.n_hits - s0.n_hits);
  check Alcotest.int "an extra miss" 2 (s'.Mdh_lowering.Plan_cache.n_misses - s0.n_misses)

let test_plan_parallelism_matches_cost () =
  (* tentpole invariant: Plan.parallelism and the cost model's
     achieved_units are the same number on the same plan *)
  List.iter
    (fun (w : W.t) ->
      let md = W.to_md_hom w w.W.test_params in
      List.iter
        (fun dev ->
          let sched = Lower.mdh_default md dev in
          match Plan.build md dev sched with
          | Error e -> Alcotest.failf "%s: %s" w.W.wl_name e
          | Ok plan ->
            let a = Cost.analyse_plan md dev Cost.tuned_codegen plan in
            check Alcotest.int
              (Printf.sprintf "%s on %s" w.W.wl_name dev.Mdh_machine.Device.device_name)
              (Plan.parallelism plan) a.Cost.achieved_units)
        [ cpu; gpu ])
    Catalog.all

(* --- any legal schedule's plan tiling computes the reference result --- *)

let test_simulate_matches_reference () =
  List.iter
    (fun (w : W.t) ->
      let md = W.to_md_hom w w.W.test_params in
      let env = w.W.gen w.W.test_params ~seed:42 in
      let expected = Mdh_core.Semantics.reference md env in
      let sched = Lower.mdh_default md cpu in
      match Plan_cache.build md cpu sched with
      | Error e -> Alcotest.failf "%s: %s" w.W.wl_name e
      | Ok plan ->
        let got =
          Mdh_core.Semantics.eval_tiled md env ~tile_sizes:plan.Plan.tile_sizes
        in
        List.iter
          (fun (o : Mdh_core.Md_hom.output) ->
            check Alcotest.bool
              (Printf.sprintf "%s/%s" w.W.wl_name o.Mdh_core.Md_hom.out_name)
              true
              (Mdh_tensor.Dense.approx_equal ~rel:1e-4 ~abs:1e-5
                 (Buffer.data (Buffer.env_find got o.Mdh_core.Md_hom.out_name))
                 (Buffer.data (Buffer.env_find expected o.Mdh_core.Md_hom.out_name))))
          md.Mdh_core.Md_hom.outputs)
    Catalog.all

let suite =
  let tc = Alcotest.test_case in
  ( "lowering",
    [ tc "sequential legal" `Quick test_sequential_is_legal;
      tc "legal rejects bad arity" `Quick test_legal_rejects_bad_arity;
      tc "legal rejects non-assoc parallel reduction" `Quick
        test_legal_rejects_nonassociative_parallel_reduction;
      tc "schedule clamp" `Quick test_schedule_clamp;
      tc "footprint matvec tile" `Quick test_footprint_matvec_tile;
      tc "footprint stencil union" `Quick test_footprint_stencil_union;
      tc "naive vs compulsory" `Quick test_naive_vs_compulsory;
      tc "tiling beats untiled (matmul)" `Quick test_tiling_beats_untiled_matmul;
      tc "parallelism helps" `Quick test_parallelism_helps;
      tc "reduction parallelisation (dot/gpu)" `Quick
        test_reduction_parallelisation_helps_dot;
      tc "PRL Inp1 underutilisation (gpu)" `Quick test_underutilisation_prl_inp1_gpu;
      tc "cost rejects illegal" `Quick test_cost_rejects_illegal;
      tc "transfers add time" `Quick test_transfers_add_time;
      tc "mdh_default legal everywhere" `Quick test_mdh_default_legal;
      tc "tile options" `Quick test_tile_options;
      tc "parallel dim options" `Quick test_parallel_dim_options;
      tc "best_of picks cheapest" `Quick test_best_of_picks_cheapest;
      tc "schedule string roundtrip" `Quick test_schedule_string_roundtrip;
      tc "plan matvec structure" `Quick test_plan_matvec_structure;
      tc "plan sequential reduction" `Quick test_plan_sequential_reduction;
      tc "plan tiled sequential" `Quick test_plan_tiled_sequential;
      tc "plan scan" `Quick test_plan_scan;
      tc "plan rejects illegal" `Quick test_plan_rejects_illegal;
      tc "plan sequential shape" `Quick test_plan_sequential_shape;
      tc "plan digest stable" `Quick test_plan_digest_stable;
      tc "plan cache counters" `Quick test_plan_cache_counters;
      tc "plan parallelism = cost achieved_units" `Quick
        test_plan_parallelism_matches_cost;
      tc "simulate matches reference (all workloads)" `Slow
        test_simulate_matches_reference ] )
