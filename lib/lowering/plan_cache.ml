module Md_hom = Mdh_core.Md_hom
module Device = Mdh_machine.Device
module Memo = Mdh_support.Memo

let cache : (Plan.t, string) result Memo.t = Memo.create "lowering.plan_cache"

let build md dev sched =
  let key =
    Memo.key
      [ Format.asprintf "%a" Md_hom.pp md;
        dev.Device.device_name;
        Schedule.to_string sched ]
  in
  Memo.find_or_add cache key (fun () -> Plan.build md dev sched)

type stats = Memo.stats = { n_hits : int; n_misses : int; n_entries : int }

let stats () = Memo.stats cache
let clear () = Memo.clear cache
