(* Chaos and robustness tests: the deterministic fault-injection layer,
   crash-safe tuning-database recovery, checkpoint/resume bit-identity,
   and graceful pool degradation. *)

module W = Mdh_workloads.Workload
module Device = Mdh_machine.Device
module Cost = Mdh_lowering.Cost
module Schedule = Mdh_lowering.Schedule
module Pool = Mdh_runtime.Pool
module Metrics = Mdh_obs.Metrics
module Fault = Mdh_fault.Fault
open Mdh_atf

let check = Alcotest.check

let cpu = Device.xeon6140_like

let with_faults spec f =
  (match Fault.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("bad fault spec: " ^ e));
  Fun.protect ~finally:Fault.disarm f

let with_tmp_dir f =
  let dir = Filename.temp_file "mdh_fault" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let counter_value name = Metrics.value (Metrics.counter name)

(* --- spec grammar --- *)

let test_parse_spec () =
  match
    Fault.parse "cost.eval:raise@40,db.write:truncate=5,pool.job:delay=250@1/2"
  with
  | Error e -> Alcotest.fail e
  | Ok [ a; b; c ] ->
    check Alcotest.string "site" "cost.eval" a.Fault.site;
    check Alcotest.bool "raise" true (a.Fault.action = Fault.Raise);
    check Alcotest.int "at" 40 a.Fault.at;
    check Alcotest.bool "one-shot" true (a.Fault.every = None);
    check Alcotest.bool "truncate" true (b.Fault.action = Fault.Truncate 5);
    check Alcotest.int "default hit index" 1 b.Fault.at;
    check Alcotest.bool "delay in seconds" true (c.Fault.action = Fault.Delay 0.25);
    check Alcotest.bool "repeats" true (c.Fault.every = Some 2)
  | Ok _ -> Alcotest.fail "wrong clause count"

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Ok _ -> Alcotest.fail ("accepted bad spec: " ^ spec)
      | Error _ -> ())
    [ "bogus.site:raise"; "cost.eval:explode"; "cost.eval:raise@x"; "cost.eval";
      ""; "cost.eval:raise@0"; "db.write:truncate" ]

(* trigger-syntax edge cases carry *named* diagnostics: scripts (and the
   cli_test.sh pin) rely on the operator seeing what was wrong, not just
   a rejection *)
let test_parse_error_diagnostics () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let expect spec fragment =
    match Fault.parse spec with
    | Ok _ -> Alcotest.fail ("accepted bad spec: " ^ spec)
    | Error e ->
      if not (contains e fragment) then
        Alcotest.fail
          (Printf.sprintf "spec %S: diagnostic %S does not name %S" spec e
             fragment)
  in
  expect "cost.eval:raise@0" "bad hit index";
  expect "cost.eval:raise@-1" "bad hit index";
  expect "serve.read:raise@" "bad hit index";
  expect "cost.eval:raise@1/0" "bad repeat count";
  expect "serve.handle:delay=10/-2" "bad repeat count";
  expect "serve.reed:raise" "unknown site";
  expect "Serve.read:raise" "unknown site";
  (* the unknown-site diagnostic enumerates what IS known *)
  expect "nope:raise" "serve.handle"

(* no kernel runs in place of a plan, so the site that faulted one is
   gone: naming it is an unknown site, and the error lists those that
   remain *)
let test_kernel_site_unknown () =
  match Fault.parse "kernel.run:raise@1" with
  | Ok _ -> Alcotest.fail "accepted kernel.run"
  | Error e ->
    List.iter
      (fun fragment ->
        if not (Test_util.contains e fragment) then
          Alcotest.failf "diagnostic %S does not name %S" e fragment)
      ("unknown site \"kernel.run\"" :: Fault.sites)

let test_parse_serve_sites () =
  List.iter
    (fun site ->
      match Fault.parse (site ^ ":raise@2/3") with
      | Ok [ t ] ->
        check Alcotest.string "site" site t.Fault.site;
        check Alcotest.int "at" 2 t.Fault.at;
        check Alcotest.bool "every" true (t.Fault.every = Some 3)
      | Ok _ -> Alcotest.fail "wrong clause count"
      | Error e -> Alcotest.fail (site ^ ": " ^ e))
    [ "serve.accept"; "serve.read"; "serve.write"; "serve.handle" ]

let test_disarmed_noop () =
  Fault.disarm ();
  check Alcotest.bool "disarmed" false (Fault.armed ());
  Fault.hit "cost.eval";
  check Alcotest.string "mangle is identity" "payload"
    (Fault.mangle "db.write" "payload")

(* --- trigger semantics --- *)

let test_raise_at_exact_hit () =
  with_faults "cost.eval:raise@3" (fun () ->
      Fault.hit "cost.eval";
      Fault.hit "cost.eval";
      (try
         Fault.hit "cost.eval";
         Alcotest.fail "third hit did not inject"
       with Fault.Injected site -> check Alcotest.string "site" "cost.eval" site);
      (* one-shot: the fourth hit is clean *)
      Fault.hit "cost.eval")

let test_repeating_trigger () =
  with_faults "db.read:raise@2/2" (fun () ->
      let fired _ =
        try
          Fault.hit "db.read";
          false
        with Fault.Injected _ -> true
      in
      check
        (Alcotest.list Alcotest.bool)
        "fires on hits 2, 4, 6"
        [ false; true; false; true; false; true ]
        (List.init 6 fired))

let test_mangle_truncate () =
  with_faults "db.write:truncate=5" (fun () ->
      check Alcotest.string "torn payload" "01234"
        (Fault.mangle "db.write" "0123456789");
      check Alcotest.string "one-shot" "0123456789"
        (Fault.mangle "db.write" "0123456789"))

let test_mangle_corrupt_deterministic () =
  let mangled () =
    with_faults "db.write:corrupt=42" (fun () ->
        Fault.mangle "db.write" "hello world")
  in
  let a = mangled () and b = mangled () in
  check Alcotest.string "seeded flip is reproducible" a b;
  check Alcotest.bool "payload changed" true (a <> "hello world");
  check Alcotest.int "length preserved" (String.length "hello world")
    (String.length a)

let test_injection_metrics () =
  let before = counter_value "fault.injected" in
  let site_before = counter_value "fault.injected.cost.eval" in
  with_faults "cost.eval:raise@1" (fun () ->
      try Fault.hit "cost.eval" with Fault.Injected _ -> ());
  check Alcotest.int "fault.injected counted" (before + 1)
    (counter_value "fault.injected");
  check Alcotest.int "per-site counter" (site_before + 1)
    (counter_value "fault.injected.cost.eval")

(* --- pool chaos: worker death and watchdog degradation --- *)

let test_pool_survives_worker_raise () =
  with_faults "pool.job:raise@1" (fun () ->
      Pool.with_pool ~num_domains:2 (fun pool ->
          let results = Array.make 64 0 in
          Pool.parallel_for pool ~lo:0 ~hi:64 (fun i -> results.(i) <- i + 1);
          Array.iteri
            (fun i v -> check Alcotest.int "every index ran" (i + 1) v)
            results))

let test_watchdog_degrades_pool () =
  let before = counter_value "runtime.pool.degraded" in
  with_faults "pool.job:delay=200" (fun () ->
      Pool.with_pool ~num_domains:2 ~watchdog_s:0.05 (fun pool ->
          (match Pool.parallel_for pool ~lo:0 ~hi:8 (fun _ -> ()) with
          | () -> Alcotest.fail "watchdog did not fire"
          | exception Pool.Watchdog_timeout -> ());
          check Alcotest.bool "pool degraded" true (Pool.degraded pool);
          check Alcotest.bool "degradation counted" true
            (counter_value "runtime.pool.degraded" > before);
          (* later jobs complete sequentially in the caller *)
          let ran = Atomic.make 0 in
          Pool.parallel_for pool ~lo:0 ~hi:16 (fun _ -> Atomic.incr ran);
          check Alcotest.int "degraded job ran to completion" 16 (Atomic.get ran)))

let test_search_degrades_to_sequential_identically () =
  let space = Space.make [ Param.independent "x" (List.init 32 Fun.id) ] in
  let cost config =
    Fault.hit "cost.eval";
    Some (float_of_int ((Param.value config "x" * 7) mod 13))
  in
  let reference = Search.random_search space ~seed:11 ~budget:24 ~cost in
  let before = counter_value "runtime.pool.degraded" in
  let faulted =
    with_faults "cost.eval:raise@10" (fun () ->
        Pool.with_pool ~num_domains:2 (fun pool ->
            Search.random_search ~pool space ~seed:11 ~budget:24 ~cost))
  in
  check Alcotest.bool "fan-out failure counted" true
    (counter_value "runtime.pool.degraded" > before);
  check Alcotest.bool "sequential retry matches fault-free result" true
    (reference = faulted)

(* --- tuning database: corruption, quarantine, degradation --- *)

let sched tiles par =
  { Schedule.tile_sizes = tiles; parallel_dims = par; used_layers = [ 0 ] }

let test_tuning_db_quarantine_and_rebuild () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "tuning.db" in
      let db = Tuning_db.open_db path in
      Tuning_db.store db "k1" (sched [| 4; 8 |] [ 0 ]) 1.5;
      Tuning_db.store db "k2" (sched [| 2; 2 |] [ 0; 1 ]) 2.5;
      (* bit-rot and a torn append, straight onto the file *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "garbage without structure\n";
      output_string oc "k3\t0.5\tnot a schedule\tdeadbeef\n";
      close_out oc;
      let before = counter_value "atf.tuning_db.corrupt_lines" in
      let quarantined_before = counter_value "atf.tuning_db.quarantined" in
      let db2 = Tuning_db.open_db path in
      check Alcotest.int "valid entries survive" 2 (Tuning_db.size db2);
      check Alcotest.bool "k1 recalled" true (Tuning_db.find db2 "k1" <> None);
      check Alcotest.int "corrupt lines counted" (before + 2)
        (counter_value "atf.tuning_db.corrupt_lines");
      check Alcotest.int "quarantine counted" (quarantined_before + 1)
        (counter_value "atf.tuning_db.quarantined");
      check Alcotest.bool "damaged file kept as evidence" true
        (Sys.file_exists (path ^ ".corrupt"));
      (* the rebuilt file is clean: reloading drops nothing further *)
      let db3 = Tuning_db.open_db path in
      check Alcotest.int "rebuilt file loads clean" 2 (Tuning_db.size db3);
      check Alcotest.int "no further corruption" (before + 2)
        (counter_value "atf.tuning_db.corrupt_lines"))

let test_injected_torn_write_recovers () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "tuning.db" in
      with_faults "db.write:truncate=10@2" (fun () ->
          let db = Tuning_db.open_db path in
          Tuning_db.store db "k1" (sched [| 4 |] [ 0 ]) 1.0;
          Tuning_db.store db "k2" (sched [| 8 |] [ 0 ]) 2.0);
      let db = Tuning_db.open_db path in
      check Alcotest.int "torn entry dropped, first survives" 1
        (Tuning_db.size db);
      check Alcotest.bool "k1 intact" true (Tuning_db.find db "k1" <> None);
      check Alcotest.bool "torn file quarantined" true
        (Sys.file_exists (path ^ ".corrupt")))

let test_injected_unreadable_db () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "tuning.db" in
      let db = Tuning_db.open_db path in
      Tuning_db.store db "k1" (sched [| 4 |] [ 0 ]) 1.0;
      let db2 =
        with_faults "db.read:raise@1" (fun () -> Tuning_db.open_db path)
      in
      check Alcotest.int "unreadable file degrades to empty" 0
        (Tuning_db.size db2);
      let db3 = Tuning_db.open_db path in
      check Alcotest.int "file untouched on disk" 1 (Tuning_db.size db3))

let test_injected_rename_during_compact () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "tuning.db" in
      let db = Tuning_db.open_db path in
      Tuning_db.store db "k1" (sched [| 4 |] [ 0 ]) 1.0;
      with_faults "db.rename:raise@1" (fun () -> Tuning_db.compact db);
      let db2 = Tuning_db.open_db path in
      check Alcotest.int "entries survive a failed compaction" 1
        (Tuning_db.size db2))

let test_unwritable_path_degrades_to_memory () =
  with_tmp_dir (fun dir ->
      let blocker = Filename.concat dir "blocker" in
      Out_channel.with_open_bin blocker (fun oc ->
          Out_channel.output_string oc "x");
      (* a path under a regular file: every open fails with ENOTDIR *)
      let path = Filename.concat blocker "tuning.db" in
      let before = counter_value "atf.tuning_db.memory_only" in
      let db = Tuning_db.open_db path in
      Tuning_db.store db "k1" (sched [| 4 |] [ 0 ]) 1.0;
      check Alcotest.bool "persistence disabled" false (Tuning_db.persistent db);
      check Alcotest.bool "entry still served from memory" true
        (Tuning_db.find db "k1" <> None);
      check Alcotest.bool "degradation counted" true
        (counter_value "atf.tuning_db.memory_only" > before))

let test_default_path_fallbacks () =
  let vars = [ "MDH_TUNING_DB"; "XDG_CACHE_HOME"; "HOME" ] in
  let saved = List.map (fun v -> (v, Sys.getenv_opt v)) vars in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (v, value) -> Unix.putenv v (Option.value value ~default:""))
        saved)
    (fun () ->
      List.iter (fun v -> Unix.putenv v "") vars;
      check Alcotest.bool "no cache root at all -> None (never the cwd)" true
        (Tuning_db.default_path () = None);
      Unix.putenv "HOME" "/nonexistent-home";
      check
        (Alcotest.option Alcotest.string)
        "HOME fallback"
        (Some "/nonexistent-home/.cache/mdh/tuning.db")
        (Tuning_db.default_path ());
      Unix.putenv "MDH_TUNING_DB" "/tmp/explicit.db";
      check
        (Alcotest.option Alcotest.string)
        "MDH_TUNING_DB wins" (Some "/tmp/explicit.db")
        (Tuning_db.default_path ()))

(* --- checkpoint/resume: bit-identical continuation --- *)

let tune_once ?(seed = 5) ?should_stop ?resume ?checkpoint md =
  Tuner.tune_resumable ~strategy:Tuner.Anneal ~budget:90 ~seed ~chains:2
    ~checkpoint_every:8 ?should_stop ?resume ?checkpoint
    ~db:(Tuning_db.in_memory ()) md cpu Cost.tuned_codegen

let stop_after k =
  let n = ref 0 in
  fun () ->
    incr n;
    !n > k

let reference_tuning ?seed name md =
  match tune_once ?seed md with
  | Ok (Tuner.Tuned t) -> t
  | Ok (Tuner.Suspended _) ->
    Alcotest.fail (name ^ ": uninterrupted run suspended")
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let suspend_to name ckpt md =
  match tune_once ~should_stop:(stop_after 25) ~checkpoint:ckpt md with
  | Ok (Tuner.Suspended { checkpoint; evaluations }) ->
    check Alcotest.string (name ^ ": checkpoint path") ckpt checkpoint;
    check Alcotest.bool (name ^ ": partial work recorded") true (evaluations > 0);
    check Alcotest.bool (name ^ ": checkpoint on disk") true
      (Sys.file_exists ckpt)
  | Ok (Tuner.Tuned _) -> Alcotest.fail (name ^ ": search did not suspend")
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

let check_matches_reference name (reference : Tuner.tuning)
    (resumed : Tuner.tuning) =
  check Alcotest.bool (name ^ ": schedule bit-identical") true
    (reference.Tuner.schedule = resumed.Tuner.schedule);
  check (Alcotest.float 0.0) (name ^ ": estimated cost identical")
    reference.Tuner.estimated_s resumed.Tuner.estimated_s;
  check Alcotest.int (name ^ ": evaluation count identical")
    reference.Tuner.search.Search.evaluations
    resumed.Tuner.search.Search.evaluations;
  check Alcotest.bool (name ^ ": improvement trace identical") true
    (reference.Tuner.search.Search.trace = resumed.Tuner.search.Search.trace)

(* the headline robustness contract: on every catalogue workload, a tune
   suspended mid-anneal and resumed in a fresh search reproduces the
   uninterrupted run bit for bit *)
let test_resume_bit_identity_across_catalogue () =
  with_tmp_dir (fun dir ->
      List.iter
        (fun (w : W.t) ->
          let name = w.W.wl_name in
          let md = W.to_md_hom w w.W.test_params in
          let reference = reference_tuning name md in
          let ckpt = Filename.concat dir (name ^ ".ckpt") in
          let writes_before = counter_value "atf.checkpoint.writes" in
          suspend_to name ckpt md;
          check Alcotest.bool (name ^ ": periodic checkpoints written") true
            (counter_value "atf.checkpoint.writes" > writes_before);
          let resumes_before = counter_value "atf.checkpoint.resumes" in
          let resumed =
            match tune_once ~resume:true ~checkpoint:ckpt md with
            | Ok (Tuner.Tuned t) -> t
            | Ok (Tuner.Suspended _) ->
              Alcotest.fail (name ^ ": resume suspended again")
            | Error e -> Alcotest.fail (name ^ ": " ^ e)
          in
          check Alcotest.int (name ^ ": resume counted") (resumes_before + 1)
            (counter_value "atf.checkpoint.resumes");
          check_matches_reference name reference resumed;
          check Alcotest.bool (name ^ ": checkpoint deleted on completion")
            false (Sys.file_exists ckpt))
        Mdh_workloads.Catalog.all)

(* an injected persistent fault kills the tune mid-search (the crash
   case); the checkpoint left behind resumes to the identical result *)
let test_injected_crash_then_resume () =
  with_tmp_dir (fun dir ->
      let w = List.hd Mdh_workloads.Catalog.all in
      let name = w.W.wl_name in
      let md = W.to_md_hom w w.W.test_params in
      let reference = reference_tuning name md in
      let ckpt = Filename.concat dir "crash.ckpt" in
      (match
         with_faults "cost.eval:raise@30/1" (fun () ->
             tune_once ~checkpoint:ckpt ~should_stop:(fun () -> false) md)
       with
      | exception Fault.Injected _ -> ()
      | Ok _ | Error _ -> Alcotest.fail "persistent fault did not crash the tune");
      check Alcotest.bool "crash left a checkpoint" true (Sys.file_exists ckpt);
      let resumed =
        match tune_once ~resume:true ~checkpoint:ckpt md with
        | Ok (Tuner.Tuned t) -> t
        | Ok (Tuner.Suspended _) | Error _ ->
          Alcotest.fail "resume after crash failed"
      in
      check_matches_reference "crash-resume" reference resumed)

(* the zero-i/o contract: without a deadline, stop predicate, checkpoint
   path or resume request, annealing writes no checkpoint, not even to its
   default place next to a file-backed tuning database *)
let test_plain_anneal_writes_no_checkpoint () =
  with_tmp_dir (fun dir ->
      let w = List.hd Mdh_workloads.Catalog.all in
      let md = W.to_md_hom w w.W.test_params in
      let db = Tuning_db.open_db (Filename.concat dir "tuning.db") in
      let writes_before = counter_value "atf.checkpoint.writes" in
      (match
         Tuner.tune_resumable ~strategy:Tuner.Anneal ~budget:90 ~seed:5
           ~chains:2 ~checkpoint_every:8 ~db md cpu Cost.tuned_codegen
       with
      | Ok (Tuner.Tuned t) ->
        check Alcotest.bool "searched" true (t.Tuner.search.Search.evaluations > 0)
      | Ok (Tuner.Suspended _) -> Alcotest.fail "suspended without a stop"
      | Error e -> Alcotest.fail e);
      check Alcotest.int "no checkpoint writes" writes_before
        (counter_value "atf.checkpoint.writes");
      check (Alcotest.list Alcotest.string) "no checkpoint file" []
        (List.filter
           (fun f -> Filename.check_suffix f ".ckpt")
           (Array.to_list (Sys.readdir dir))))

let test_corrupt_checkpoint_starts_fresh () =
  with_tmp_dir (fun dir ->
      let w = List.hd Mdh_workloads.Catalog.all in
      let name = w.W.wl_name in
      let md = W.to_md_hom w w.W.test_params in
      let reference = reference_tuning name md in
      let ckpt = Filename.concat dir "bad.ckpt" in
      suspend_to name ckpt md;
      Out_channel.with_open_bin ckpt (fun oc ->
          Out_channel.output_string oc "garbage\nmore garbage\n");
      let before = counter_value "atf.checkpoint.corrupt" in
      let resumed =
        match tune_once ~resume:true ~checkpoint:ckpt md with
        | Ok (Tuner.Tuned t) -> t
        | Ok (Tuner.Suspended _) | Error _ ->
          Alcotest.fail "corrupt checkpoint aborted the tune"
      in
      check Alcotest.int "corruption counted" (before + 1)
        (counter_value "atf.checkpoint.corrupt");
      (* a fresh start IS the uninterrupted run *)
      check_matches_reference "fresh-after-corrupt" reference resumed)

let test_stale_checkpoint_ignored () =
  with_tmp_dir (fun dir ->
      let w = List.hd Mdh_workloads.Catalog.all in
      let name = w.W.wl_name in
      let md = W.to_md_hom w w.W.test_params in
      let ckpt = Filename.concat dir "stale.ckpt" in
      suspend_to name ckpt md;
      (* same checkpoint path, different request (seed): the key mismatch
         must be detected and the checkpoint ignored, not misapplied *)
      let reference = reference_tuning ~seed:6 name md in
      let resumed =
        match tune_once ~seed:6 ~resume:true ~checkpoint:ckpt md with
        | Ok (Tuner.Tuned t) -> t
        | Ok (Tuner.Suspended _) | Error _ ->
          Alcotest.fail "stale checkpoint aborted the tune"
      in
      check_matches_reference "stale-ignored" reference resumed)

(* two identical in-flight tunes (mdhd derives one checkpoint path for
   both) checkpoint the same path concurrently, once per evaluation: every
   write goes through a temp file of its own, so none is lost to the other
   tune's rename and none publishes the other's torn bytes *)
let test_concurrent_checkpoints_same_path () =
  with_tmp_dir (fun dir ->
      let w = List.hd Mdh_workloads.Catalog.all in
      let md = W.to_md_hom w w.W.test_params in
      let ckpt = Filename.concat dir "shared.ckpt" in
      let tune ?should_stop ?resume ?checkpoint () =
        match
          Tuner.tune_resumable ~strategy:Tuner.Anneal ~budget:600 ~seed:5 ~chains:2
            ~checkpoint_every:1 ?should_stop ?resume ?checkpoint
            ~db:(Tuning_db.in_memory ()) md cpu Cost.tuned_codegen
        with
        | Ok outcome -> outcome
        | Error e -> Alcotest.fail e
      in
      let tuned = function
        | Tuner.Tuned t -> t
        | Tuner.Suspended _ -> Alcotest.fail "tune suspended"
      in
      let reference = tuned (tune ()) in
      let suspend () = tune ~should_stop:(stop_after 400) ~checkpoint:ckpt () in
      let writes () = counter_value "atf.checkpoint.writes" in
      let w0 = writes () in
      ignore (suspend ());
      let alone = writes () - w0 in
      let w1 = writes () and corrupt0 = counter_value "atf.checkpoint.corrupt" in
      List.iter
        (fun d ->
          match Domain.join d with
          | Tuner.Suspended _ -> ()
          | Tuner.Tuned _ -> Alcotest.fail "concurrent tune did not suspend")
        (List.init 2 (fun _ -> Domain.spawn suspend));
      check Alcotest.int "every concurrent write published" (2 * alone) (writes () - w1);
      check Alcotest.(list string) "only the checkpoint on disk" [ "shared.ckpt" ]
        (Array.to_list (Sys.readdir dir));
      let resumed = tuned (tune ~resume:true ~checkpoint:ckpt ()) in
      check Alcotest.int "no corrupt checkpoint" corrupt0
        (counter_value "atf.checkpoint.corrupt");
      check_matches_reference "concurrent-resume" reference resumed)

(* a checkpoint write that fails before its rename removes its temp file *)
let test_failed_checkpoint_leaves_no_temp () =
  with_tmp_dir (fun dir ->
      let w = List.hd Mdh_workloads.Catalog.all in
      let md = W.to_md_hom w w.W.test_params in
      let ckpt = Filename.concat dir "failing.ckpt" in
      ignore
        (with_faults "db.rename:raise@1/1" (fun () ->
             tune_once ~should_stop:(stop_after 25) ~checkpoint:ckpt md));
      check Alcotest.(list string) "nothing left behind" [] (Array.to_list (Sys.readdir dir)))

let suite =
  ( "fault",
    [ Alcotest.test_case "spec: parse round-trip" `Quick test_parse_spec;
      Alcotest.test_case "spec: bad specs rejected" `Quick test_parse_errors;
      Alcotest.test_case "spec: edge cases carry named diagnostics" `Quick
        test_parse_error_diagnostics;
      Alcotest.test_case "spec: kernel.run is an unknown site" `Quick
        test_kernel_site_unknown;
      Alcotest.test_case "spec: serve.* sites parse" `Quick
        test_parse_serve_sites;
      Alcotest.test_case "disarmed hooks are no-ops" `Quick test_disarmed_noop;
      Alcotest.test_case "raise fires at exact hit" `Quick test_raise_at_exact_hit;
      Alcotest.test_case "repeating trigger" `Quick test_repeating_trigger;
      Alcotest.test_case "truncate mangles payload" `Quick test_mangle_truncate;
      Alcotest.test_case "corrupt is seeded-deterministic" `Quick
        test_mangle_corrupt_deterministic;
      Alcotest.test_case "injections are counted" `Quick test_injection_metrics;
      Alcotest.test_case "pool survives a worker raise" `Quick
        test_pool_survives_worker_raise;
      Alcotest.test_case "watchdog degrades the pool" `Quick
        test_watchdog_degrades_pool;
      Alcotest.test_case "search degrades sequentially, identically" `Quick
        test_search_degrades_to_sequential_identically;
      Alcotest.test_case "tuning db: quarantine and rebuild" `Quick
        test_tuning_db_quarantine_and_rebuild;
      Alcotest.test_case "tuning db: injected torn write" `Quick
        test_injected_torn_write_recovers;
      Alcotest.test_case "tuning db: injected unreadable file" `Quick
        test_injected_unreadable_db;
      Alcotest.test_case "tuning db: injected rename failure" `Quick
        test_injected_rename_during_compact;
      Alcotest.test_case "tuning db: unwritable path degrades" `Quick
        test_unwritable_path_degrades_to_memory;
      Alcotest.test_case "tuning db: default path fallbacks" `Quick
        test_default_path_fallbacks;
      Alcotest.test_case "resume bit-identity across catalogue" `Quick
        test_resume_bit_identity_across_catalogue;
      Alcotest.test_case "injected crash then resume" `Quick
        test_injected_crash_then_resume;
      Alcotest.test_case "plain anneal writes no checkpoint" `Quick
        test_plain_anneal_writes_no_checkpoint;
      Alcotest.test_case "corrupt checkpoint starts fresh" `Quick
        test_corrupt_checkpoint_starts_fresh;
      Alcotest.test_case "stale checkpoint ignored" `Quick
        test_stale_checkpoint_ignored;
      Alcotest.test_case "concurrent checkpoints, one path" `Quick
        test_concurrent_checkpoints_same_path;
      Alcotest.test_case "failed checkpoint leaves no temp" `Quick
        test_failed_checkpoint_leaves_no_temp ] )
