module Device = Mdh_machine.Device
module Cost = Mdh_lowering.Cost
module Lower = Mdh_lowering.Lower
module Tuner = Mdh_atf.Tuner

(* cost-model evaluations per tuning run: the stand-in for the paper's
   12-hour tuning budget *)
let tune_budget = 400

let compile ~tuned md dev =
  if tuned then begin
    (* The MDH schedule space is a superset of every baseline's space, so
       the tuner's answer is floored by the restricted-space optima: the
       annealer's best over the full space competes against a search with
       the parallel set pinned to all parallelisable dimensions, the
       reduction-sequential (polyhedral-style) optimum, and the untuned
       heuristic. *)
    let full = Tuner.tune ~budget:tune_budget md dev Cost.tuned_codegen in
    let pinned =
      Tuner.tune ~budget:tune_budget
        ~parallel_options:[ Lower.parallelisable_dims md ]
        md dev Cost.tuned_codegen
    in
    let candidates =
      List.filter_map Fun.id
        [ Result.to_option (Result.map (fun t -> t.Tuner.schedule) full);
          Result.to_option (Result.map (fun t -> t.Tuner.schedule) pinned);
          Some (Polyhedral.tuned_schedule md dev);
          Some (Lower.mdh_default md dev) ]
    in
    match Lower.best_of md dev Cost.tuned_codegen candidates with
    | Some (schedule, _) ->
      Common.outcome_of_schedule ~system:"MDH" ~tuned:true md dev Cost.tuned_codegen
        schedule
    | None -> Error (Common.Not_supported "tuning found no legal schedule")
  end
  else
    Common.outcome_of_schedule ~system:"MDH(untuned)" ~tuned:false md dev
      Cost.tuned_codegen (Lower.mdh_default md dev)

let system =
  { Common.sys_name = "MDH"; targets = [ Device.Gpu; Device.Cpu ]; compile }
