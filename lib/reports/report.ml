(* Shared helpers for the benchmark reports. *)

module W = Mdh_workloads.Workload
module Device = Mdh_machine.Device
module Common = Mdh_baselines.Common
module Registry = Mdh_baselines.Registry

let section title =
  Printf.printf "\n=== %s ===\n\n" title

let time_str s =
  if s < 1e-6 then Printf.sprintf "%.0f ns" (s *. 1e9)
  else if s < 1e-3 then Printf.sprintf "%.1f us" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.2f s" s

let speedup_str x =
  if x >= 100.0 then Printf.sprintf "%.0fx" x
  else if x >= 10.0 then Printf.sprintf "%.1fx" x
  else Printf.sprintf "%.2fx" x

let short_failure = function
  | Common.Unsupported_reduction _ -> "FAIL:reducer"
  | Common.Polyhedral_extraction_error _ -> "FAIL:polyhedra"
  | Common.No_parallel_dim _ -> "FAIL:no-par"
  | Common.Out_of_resources _ -> "FAIL:resources"
  | Common.Wrong_device _ -> "n/a"
  | Common.Not_supported _ -> "n/a"

let md_of (w : W.t) inp = W.to_md_hom w (List.assoc inp w.W.paper_inputs)

let mdh_seconds md dev =
  match Registry.mdh.Common.compile ~tuned:true md dev with
  | Ok o -> Common.seconds o
  | Error f -> failwith ("MDH failed to compile: " ^ Common.failure_to_string f)

(* --- per-workload observability ledger ---

   The reports loop over the catalogue internally, so the bench driver
   cannot see per-workload cache behaviour from outside; the table
   builders wrap each workload's row in [observe_workload], which spans
   it in the trace and accumulates the cost-cache hit/miss delta under
   the workload's name (merged across devices and repeat visits). *)

type workload_obs = {
  mutable wo_hits : int;
  mutable wo_misses : int;
  mutable wo_elapsed_s : float;
  mutable wo_visits : int;
}

let workload_tbl : (string, workload_obs) Hashtbl.t = Hashtbl.create 64
let workload_order : string list ref = ref []

let observe_workload name f =
  let before = Mdh_atf.Cost_cache.stats () in
  let result, elapsed =
    Mdh_support.Util.time_it (fun () ->
        Mdh_obs.Trace.with_span ~cat:"report" "report.workload"
          ~args:[ ("workload", name) ] f)
  in
  let after = Mdh_atf.Cost_cache.stats () in
  let entry =
    match Hashtbl.find_opt workload_tbl name with
    | Some e -> e
    | None ->
      let e = { wo_hits = 0; wo_misses = 0; wo_elapsed_s = 0.0; wo_visits = 0 } in
      Hashtbl.add workload_tbl name e;
      workload_order := name :: !workload_order;
      e
  in
  entry.wo_hits <- entry.wo_hits + (after.Mdh_atf.Cost_cache.n_hits - before.Mdh_atf.Cost_cache.n_hits);
  entry.wo_misses <-
    entry.wo_misses + (after.Mdh_atf.Cost_cache.n_misses - before.Mdh_atf.Cost_cache.n_misses);
  entry.wo_elapsed_s <- entry.wo_elapsed_s +. elapsed;
  entry.wo_visits <- entry.wo_visits + 1;
  result

let workload_obs () =
  List.rev_map
    (fun name ->
      let e = Hashtbl.find workload_tbl name in
      (name, e.wo_hits, e.wo_misses, e.wo_elapsed_s))
    !workload_order
