module Md_hom = Mdh_core.Md_hom
module Semantics = Mdh_core.Semantics
module Buffer = Mdh_tensor.Buffer
module Combine = Mdh_combine.Combine
module Plan = Mdh_lowering.Plan
module Plan_cache = Mdh_lowering.Plan_cache

let host_device pool =
  let workers = Pool.num_workers pool in
  { Mdh_machine.Device.device_name = Printf.sprintf "host:%dw" workers;
    kind = Mdh_machine.Device.Cpu;
    layers = [| { layer_name = "workers"; max_units = workers } |];
    peak_gflops = 1.0;
    mem = [| { level_name = "RAM"; capacity_bytes = max_int; bandwidth_gbs = 1.0 } |];
    link_gbs = None;
    launch_overhead_s = 0.0;
    saturation_units = 1;
    min_bw_fraction = 1.0;
    compute_saturation_units = 1 }

module Trace = Mdh_obs.Trace
module Metrics = Mdh_obs.Metrics
module Clock = Mdh_obs.Clock
module Profile = Mdh_obs.Profile

let m_runs = Metrics.counter "runtime.exec.runs"
let m_boxes = Metrics.counter "runtime.exec.boxes"

(* time a backend attempt and attribute it to a profile phase cell when it
   actually handled the run; a refused attempt (None) is matcher overhead,
   far below profiling resolution *)
let timed_phase ~digest ~path f =
  if not (Profile.enabled ()) then f ()
  else begin
    let t0 = Clock.now_ns () in
    let r = f () in
    (match r with
    | Some _ ->
      Profile.add ~digest ~path
        (Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0))
    | None -> ());
    r
  end

(* plan-level indices of the parallel levels, for attributing the box
   walker's per-job time back to the plan tree *)
let parallel_level_indices plan =
  let rec go i dist tree = function
    | [] -> (dist, tree)
    | Plan.Distribute _ :: rest -> go (i + 1) i tree rest
    | Plan.Tree_reduce _ :: rest -> go (i + 1) dist i rest
    | _ :: rest -> go (i + 1) dist tree rest
  in
  go 0 (-1) (-1) plan.Plan.levels

let run_seq md env =
  Trace.with_span ~cat:"runtime" "exec.seq"
    ~args:[ ("hom", md.Md_hom.hom_name) ]
    (fun () -> Semantics.exec md env)

(* Spend the chunk budget on the plan's parallel levels: distributed (cc)
   dimensions first, in dimension order, then the tree-reduce dimension
   with whatever budget remains. *)
let decompose plan ~target =
  let remaining = ref (max 1 target) in
  let cc =
    List.map
      (fun (d, extent) ->
        let pieces = max 1 (min extent !remaining) in
        remaining := max 1 (!remaining / pieces);
        (d, Pool.split_range ~extent ~pieces))
      (Plan.distributed plan)
  in
  let tree =
    match Plan.tree plan with
    | Some (d, extent, _items) when !remaining > 1 ->
      Some (d, Pool.split_range ~extent ~pieces:!remaining)
    | _ -> None
  in
  (cc, tree)

(* All combinations of per-dimension ranges, outer dimension major. Each
   box is a [(dim, (lo, sz))] list. *)
let cross cc =
  List.fold_left
    (fun boxes (d, ranges) ->
      List.concat_map (fun box -> List.map (fun r -> box @ [ (d, r) ]) ranges) boxes)
    [ [] ] cc

(* Tile sizes the box walker passes to [eval_box_tiled]: only dimensions
   the plan tiles (sequential cc dims with tile < extent) are split below
   the box level; everything else keeps its full extent so distributed and
   reduction dimensions are not re-decomposed inside a box. *)
let box_tiles (md : Md_hom.t) plan =
  let tiles = Array.copy md.sizes in
  List.iter (fun (dim, tile) -> tiles.(dim) <- tile) (Plan.tiled plan);
  tiles

let run_with_plan ?(fastpath = true) ?(specialize = true) pool plan
    (md : Md_hom.t) env =
  if Array.exists (fun s -> s = 0) md.Md_hom.sizes then
    (* an empty dimension means zero jobs after decomposition, which would
       leave allocated outputs unwritten; parallel execution is pinned to
       the sequential semantics for empty iteration spaces (the plan is
       irrelevant — there is no work to distribute) *)
    Ok (run_seq md env)
  else begin
    Metrics.incr m_runs;
    let digest = if Profile.enabled () then Plan.digest plan else "" in
    Trace.with_span ~cat:"runtime" "exec.run"
      ~args:[ ("hom", md.Md_hom.hom_name) ]
      (fun () ->
        match
          match
            timed_phase ~digest ~path:"phase:fastpath" (fun () ->
                if fastpath then Fastpath.try_run pool plan md env else None)
          with
          | Some env -> Some env
          | None ->
            (* the specializer attributes its own compile/run phases *)
            if specialize then Specializer.try_run pool plan md env else None
        with
        | Some env -> Ok env
        | None ->
          let cc, tree = decompose plan ~target:(Pool.chunk_budget pool) in
          if cc = [] && tree = None then Ok (run_seq md env)
          else begin
            (* profiled walker attribution is coarse by nature: the box
               walker interprets per point, so measured time lands on the
               parallel plan levels driving the boxes (plus recombine);
               levels inside a box are not individually metered *)
            let profiling = Profile.enabled () in
            let walker_t0 = Clock.now_ns () in
            let dist_lvl, tree_lvl = parallel_level_indices plan in
            let box_path treepart =
              if treepart <> None && tree_lvl >= 0 then
                "L" ^ string_of_int tree_lvl
              else if dist_lvl >= 0 then "L" ^ string_of_int dist_lvl
              else if tree_lvl >= 0 then "L" ^ string_of_int tree_lvl
              else "boxes"
            in
            let profile_add path dt =
              Profile.add ~digest ~path dt;
              Profile.add ~digest ~path:"exec" dt
            in
            let env = Semantics.alloc_outputs md env in
            let rank = Md_hom.rank md in
            let tiles = box_tiles md plan in
            let cc_boxes = cross cc in
            let tree_ranges =
              match tree with Some (_, rs) -> rs | None -> []
            in
            let n_tree = max 1 (List.length tree_ranges) in
            List.iter
              (fun (o : Md_hom.output) ->
                (* one job per (cc box × tree range), cc-box major so job
                   group [g] owns partials [g*n_tree .. (g+1)*n_tree) *)
                let jobs =
                  List.concat_map
                    (fun box ->
                      match tree with
                      | None -> [ (box, None) ]
                      | Some (td, rs) ->
                        List.map (fun r -> (box, Some (td, r))) rs)
                    cc_boxes
                in
                let thunks =
                  Array.of_list
                    (List.mapi
                       (fun j (box, treepart) ->
                         fun () ->
                           let lo = Array.make rank 0 in
                           let sz = Array.copy md.sizes in
                           List.iter
                             (fun (d, (l, s)) ->
                               lo.(d) <- l;
                               sz.(d) <- s)
                             box;
                           (match treepart with
                           | Some (td, (l, s)) ->
                             lo.(td) <- l;
                             sz.(td) <- s
                           | None -> ());
                           Metrics.incr m_boxes;
                           let t0 = if profiling then Clock.now_ns () else 0L in
                           let r =
                             Trace.with_span ~cat:"runtime" "exec.box"
                               ~args:
                                 [ ("output", o.Md_hom.out_name);
                                   ("box", string_of_int j) ]
                               (fun () ->
                                 Semantics.eval_box_tiled md env o ~lo ~sz
                                   ~tile_sizes:tiles)
                           in
                           if profiling then
                             profile_add (box_path treepart)
                               (Clock.ns_to_s
                                  (Int64.sub (Clock.now_ns ()) t0));
                           r)
                       jobs)
                in
                let partials = Pool.run_in_parallel pool thunks in
                let box_lo box =
                  let lo = Array.make rank 0 in
                  List.iter (fun (d, (l, _)) -> lo.(d) <- l) box;
                  lo
                in
                match tree with
                | None ->
                  (* pure concatenation: every box lands in a disjoint slab
                     of the output — write in place, no combine fold *)
                  List.iteri
                    (fun j (box, _) ->
                      Semantics.write_output env md o ~lo:(box_lo box) partials.(j))
                    jobs
                | Some (td, _) ->
                  let op = md.combine_ops.(td) in
                  List.iteri
                    (fun g box ->
                      let t0 = if profiling then Clock.now_ns () else 0L in
                      let combined =
                        Trace.with_span ~cat:"runtime" "exec.recombine"
                          ~args:[ ("output", o.Md_hom.out_name) ]
                          (fun () ->
                            let acc = ref None in
                            for j = g * n_tree to ((g + 1) * n_tree) - 1 do
                              acc :=
                                match !acc with
                                | None -> Some partials.(j)
                                | Some a ->
                                  Some
                                    (Combine.combine_partials op ~dim:td a
                                       partials.(j))
                            done;
                            !acc)
                      in
                      if profiling then
                        profile_add
                          (if tree_lvl >= 0 then "L" ^ string_of_int tree_lvl
                           else "recombine")
                          (Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0));
                      match combined with
                      | Some tensor ->
                        Semantics.write_output env md o ~lo:(box_lo box) tensor
                      | None -> ())
                    cc_boxes)
              md.outputs;
            if profiling then
              Profile.add ~digest ~path:"phase:walker"
                (Clock.ns_to_s (Int64.sub (Clock.now_ns ()) walker_t0));
            Ok env
          end)
  end

let run ?device ?fastpath ?specialize pool (md : Md_hom.t) sched env =
  if Array.exists (fun s -> s = 0) md.Md_hom.sizes then Ok (run_seq md env)
  else
    let dev = match device with Some d -> d | None -> host_device pool in
    match Plan_cache.build md dev sched with
    | Error _ as e -> e
    | Ok plan -> run_with_plan ?fastpath ?specialize pool plan md env
