module Md_hom = Mdh_core.Md_hom
module Device = Mdh_machine.Device
module Cost = Mdh_lowering.Cost
module Schedule = Mdh_lowering.Schedule
module Memo = Mdh_support.Memo
module Combine = Mdh_combine.Combine
module Scalar = Mdh_tensor.Scalar

type ctx = {
  md : Md_hom.t;
  dev : Device.t;
  cg : Cost.codegen;
  prefix : string;
}

let cache : (float, string) result Memo.t = Memo.create "atf.cost_cache"

(* [Md_hom.pp] names an operator only. A user-defined one adds its body
   and its declared algebra, which decides what may run in parallel; a
   computation over builtins alone keeps the keys it always had. *)
let operator_parts (md : Md_hom.t) =
  List.filter_map
    (fun op ->
      match Combine.custom_fn_of op with
      | Some fn when not fn.Combine.builtin ->
        Some
          (Printf.sprintf "%s associative=%b commutative=%b identity=%s"
             (Combine.key fn) fn.associative fn.commutative
             (match fn.identity with
             | Some v -> Scalar.value_to_string v
             | None -> "none"))
      | _ -> None)
    (Array.to_list md.combine_ops)

let context md dev cg =
  let prefix =
    Memo.key
      ([ Format.asprintf "%a" Md_hom.pp md;
         dev.Device.device_name;
         cg.Cost.cg_name;
         Printf.sprintf "%h" cg.Cost.base_compute_eff;
         Printf.sprintf "%h" cg.Cost.base_bw_eff;
         (* a fixed component: tuning databases keyed with it stay valid *)
         "default-transfers" ]
      @ operator_parts md)
  in
  { md; dev; cg; prefix }

let context_key ctx = ctx.prefix

let seconds ctx schedule =
  (* chaos hook: lets the fault layer model a cost evaluation that dies or
     stalls mid-search (fires per call, cached or not, so trigger counts
     are independent of the cache state) *)
  Mdh_fault.Fault.hit "cost.eval";
  let key = Memo.key [ ctx.prefix; Schedule.to_string schedule ] in
  Memo.find_or_add cache key (fun () ->
      Cost.seconds ctx.md ctx.dev ctx.cg schedule)

type stats = Memo.stats = { n_hits : int; n_misses : int; n_entries : int }

let stats () = Memo.stats cache
let clear () = Memo.clear cache
