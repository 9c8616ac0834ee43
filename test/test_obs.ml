(* Tests for the observability layer (lib/obs): clock monotonicity, span
   nesting, histogram bucket edges, Chrome trace JSON well-formedness,
   metrics from a full tuner run, and the bit-identity contract (tracing
   on vs off never changes a tuned schedule). *)

module Clock = Mdh_obs.Clock
module Metrics = Mdh_obs.Metrics
module Trace = Mdh_obs.Trace
module W = Mdh_workloads.Workload
module Cost = Mdh_lowering.Cost
open Mdh_atf

let check = Alcotest.check

let cpu = Mdh_machine.Device.xeon6140_like

(* every tracing test must leave the process-wide flag and buffers the
   way it found them, or later determinism tests see stale events *)
let with_tracing f =
  Trace.clear ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
    f

(* --- clock --- *)

let test_clock_monotone () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Clock.now_ns () in
    check Alcotest.bool "non-decreasing" true (Int64.compare t !prev >= 0);
    prev := t
  done

(* --- spans --- *)

let span_bounds e =
  match e.Trace.ev_ph with
  | Trace.Complete dur -> (e.Trace.ev_ts_ns, Int64.add e.Trace.ev_ts_ns dur)
  | _ -> Alcotest.fail "expected a Complete event"

let test_span_nesting_and_timing () =
  with_tracing (fun () ->
      let r =
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner" (fun () ->
                ignore (Sys.opaque_identity (Array.init 1000 Fun.id));
                17))
      in
      check Alcotest.int "value returned" 17 r;
      let events = Trace.events () in
      check Alcotest.int "two spans" 2 (List.length events);
      let find name = List.find (fun e -> e.Trace.ev_name = name) events in
      let o0, o1 = span_bounds (find "outer") in
      let i0, i1 = span_bounds (find "inner") in
      check Alcotest.bool "inner starts after outer" true (i0 >= o0);
      check Alcotest.bool "inner ends before outer" true (i1 <= o1);
      check Alcotest.bool "durations non-negative" true (o1 >= o0 && i1 >= i0);
      (* events are returned sorted by start time *)
      let ts = List.map (fun e -> e.Trace.ev_ts_ns) events in
      check Alcotest.bool "sorted" true (List.sort Int64.compare ts = ts))

let test_disabled_emits_nothing () =
  Trace.clear ();
  check Alcotest.bool "off by default here" false (Trace.enabled ());
  let r = Trace.with_span "ghost" (fun () -> 42) in
  Trace.instant "ghost-instant";
  Trace.counter_event "ghost-counter" 1.0;
  check Alcotest.int "body still runs" 42 r;
  check Alcotest.int "no events buffered" 0 (List.length (Trace.events ()))

let test_span_survives_exception () =
  with_tracing (fun () ->
      (try Trace.with_span "boom" (fun () -> failwith "boom")
       with Failure _ -> ());
      match Trace.events () with
      | [ e ] ->
        check Alcotest.string "span emitted" "boom" e.Trace.ev_name;
        let t0, t1 = span_bounds e in
        check Alcotest.bool "closed" true (t1 >= t0)
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let test_worker_domain_spans_collected () =
  with_tracing (fun () ->
      Mdh_runtime.Pool.with_pool ~num_domains:2 (fun pool ->
          Mdh_runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:16 (fun i ->
              Trace.with_span "from-worker" (fun () -> ignore i)));
      let events = Trace.events () in
      let spans = List.filter (fun e -> e.Trace.ev_name = "from-worker") events in
      check Alcotest.int "all 16 collected across domains" 16 (List.length spans);
      let tids =
        List.sort_uniq compare (List.map (fun e -> e.Trace.ev_tid) events)
      in
      check Alcotest.bool "more than one emitting domain" true
        (List.length tids > 1))

(* --- histogram buckets --- *)

let test_histogram_bucket_edges () =
  check Alcotest.int "at lowest edge" 0 (Metrics.bucket_index 1e-9);
  check Alcotest.int "below lowest edge" 0 (Metrics.bucket_index 1e-12);
  check Alcotest.int "zero" 0 (Metrics.bucket_index 0.0);
  check Alcotest.int "negative" 0 (Metrics.bucket_index (-1.0));
  check Alcotest.int "huge lands in last" (Metrics.n_buckets - 1)
    (Metrics.bucket_index 1e30);
  check Alcotest.int "infinite lands in last" (Metrics.n_buckets - 1)
    (Metrics.bucket_index infinity);
  check (Alcotest.float 0.0) "last bucket unbounded" infinity
    (Metrics.bucket_upper (Metrics.n_buckets - 1));
  (* the bucket invariant: upper (i-1) < v <= upper i *)
  for i = 0 to Metrics.n_buckets - 2 do
    let upper = Metrics.bucket_upper i in
    check Alcotest.int (Printf.sprintf "edge %d inclusive" i) i
      (Metrics.bucket_index upper);
    check Alcotest.int (Printf.sprintf "edge %d + eps overflows" i) (i + 1)
      (Metrics.bucket_index (upper *. 1.0001))
  done;
  (* edges double: upper(i+1) = 2 * upper(i) *)
  for i = 0 to Metrics.n_buckets - 3 do
    check (Alcotest.float 1e-18) "power-of-two edges"
      (2.0 *. Metrics.bucket_upper i)
      (Metrics.bucket_upper (i + 1))
  done

let test_histogram_observe () =
  let h = Metrics.histogram "test.obs.histogram_s" in
  List.iter (Metrics.observe h) [ 1e-3; 2e-3; 0.5 ];
  let s = Metrics.histogram_value h in
  check Alcotest.int "count" 3 s.Metrics.h_count;
  check (Alcotest.float 1e-12) "sum" 0.503 s.Metrics.h_sum;
  check (Alcotest.float 1e-12) "min" 1e-3 s.Metrics.h_min;
  check (Alcotest.float 1e-12) "max" 0.5 s.Metrics.h_max;
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 s.Metrics.h_buckets in
  check Alcotest.int "bucket counts total the observations" 3 total;
  List.iter
    (fun (i, _) ->
      check Alcotest.bool "bucket index in range" true
        (i >= 0 && i < Metrics.n_buckets))
    s.Metrics.h_buckets

(* --- registry --- *)

let test_counter_roundtrip () =
  let c = Metrics.counter "test.obs.counter" in
  Metrics.reset_counter c;
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "value" 5 (Metrics.value c);
  check Alcotest.bool "same name, same handle" true
    (Metrics.value (Metrics.counter "test.obs.counter") = 5);
  Metrics.reset_counter c;
  check Alcotest.int "reset" 0 (Metrics.value c)

let test_kind_clash_rejected () =
  ignore (Metrics.counter "test.obs.clash");
  match Metrics.gauge "test.obs.clash" with
  | _ -> Alcotest.fail "kind clash must raise"
  | exception Invalid_argument _ -> ()

(* --- Chrome trace JSON --- *)

(* emitted JSON is validated with the library's own reader,
   Mdh_support.Json_in — the same one mdhc and the bench gate use *)
module Json_reader = Mdh_support.Json_in

let chrome_dump () =
  let path = Filename.temp_file "mdh-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path Trace.write_chrome;
      In_channel.with_open_text path In_channel.input_all)

let test_chrome_trace_wellformed () =
  with_tracing (fun () ->
      Trace.with_span ~cat:"test" ~args:[ ("k", "v\"quoted\"") ] "alpha"
        (fun () -> Trace.instant "mark");
      Trace.counter_event "track" 3.5;
      let module J = Json_reader in
      let json = J.parse (chrome_dump ()) in
      let events =
        match J.member "traceEvents" json with
        | Some (J.Arr evs) -> evs
        | _ -> Alcotest.fail "traceEvents array missing"
      in
      check Alcotest.int "three events" 3 (List.length events);
      let phases =
        List.map
          (fun ev ->
            (* every event carries the mandatory Chrome fields *)
            (match J.member "name" ev with
            | Some (J.Str _) -> ()
            | _ -> Alcotest.fail "name missing");
            (match J.member "ts" ev with
            | Some (J.Num ts) -> check Alcotest.bool "ts >= 0" true (ts >= 0.0)
            | _ -> Alcotest.fail "ts missing");
            (match (J.member "pid" ev, J.member "tid" ev) with
            | Some (J.Num _), Some (J.Num _) -> ()
            | _ -> Alcotest.fail "pid/tid missing");
            match J.member "ph" ev with
            | Some (J.Str ph) ->
              if ph = "X" then (
                match J.member "dur" ev with
                | Some (J.Num d) -> check Alcotest.bool "dur >= 0" true (d >= 0.0)
                | _ -> Alcotest.fail "X event without dur");
              ph
            | _ -> Alcotest.fail "ph missing")
          events
      in
      List.iter
        (fun ph ->
          check Alcotest.bool ("known phase " ^ ph) true
            (List.mem ph [ "X"; "i"; "C" ]))
        phases;
      check Alcotest.bool "span exported" true (List.mem "X" phases);
      check Alcotest.bool "instant exported" true (List.mem "i" phases);
      check Alcotest.bool "counter exported" true (List.mem "C" phases))

let test_chrome_trace_empty_is_valid () =
  Trace.clear ();
  let module J = Json_reader in
  match J.member "traceEvents" (J.parse (chrome_dump ())) with
  | Some (J.Arr []) -> ()
  | _ -> Alcotest.fail "empty trace must still be a valid object"

let test_metrics_json_parses () =
  let module J = Json_reader in
  ignore (Metrics.counter "test.obs.json_counter");
  match J.parse (Metrics.to_json ()) with
  | J.Obj kvs -> check Alcotest.bool "non-empty object" true (kvs <> [])
  | _ -> Alcotest.fail "metrics JSON is not an object"

(* --- end-to-end: tuner metrics and bit-identity --- *)

let test_tune_emits_metrics () =
  let evals = Metrics.counter "atf.search.evaluations" in
  let runs = Metrics.counter "atf.tuner.runs" in
  let evals0 = Metrics.value evals and runs0 = Metrics.value runs in
  let cc0 = Cost_cache.stats () in
  let md =
    W.to_md_hom Mdh_workloads.Linalg.matvec [ ("I", 2048); ("K", 2048) ]
  in
  (match Tuner.tune ~budget:60 ~seed:7 md cpu Cost.tuned_codegen with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.int "one tuner run recorded" (runs0 + 1) (Metrics.value runs);
  let d_evals = Metrics.value evals - evals0 in
  check Alcotest.bool "search evaluations recorded" true (d_evals > 0);
  let cc = Cost_cache.stats () in
  check Alcotest.bool "cost cache accounted" true
    (cc.Cost_cache.n_hits + cc.Cost_cache.n_misses
     > cc0.Cost_cache.n_hits + cc0.Cost_cache.n_misses);
  let tune_s = Metrics.histogram_value (Metrics.histogram "atf.tuner.tune_s") in
  check Alcotest.bool "tune duration observed" true (tune_s.Metrics.h_count > 0)

let test_trace_bit_identity_all_workloads () =
  (* the acceptance contract: enabling tracing must not change any tuned
     schedule, for every workload in the catalogue *)
  List.iter
    (fun (w : W.t) ->
      let md = W.to_md_hom w w.W.test_params in
      let tune () =
        match Tuner.tune ~budget:80 ~seed:3 md cpu Cost.tuned_codegen with
        | Ok t -> t
        | Error e -> Alcotest.failf "%s: %s" w.W.wl_name e
      in
      Trace.set_enabled false;
      let plain = tune () in
      let traced = with_tracing tune in
      check Alcotest.bool (w.W.wl_name ^ ": same schedule") true
        (plain.Tuner.schedule = traced.Tuner.schedule);
      check (Alcotest.float 0.0) (w.W.wl_name ^ ": same cost")
        plain.Tuner.estimated_s traced.Tuner.estimated_s;
      check Alcotest.int (w.W.wl_name ^ ": same evaluations")
        plain.Tuner.search.Search.evaluations
        traced.Tuner.search.Search.evaluations)
    Mdh_workloads.Catalog.all

let test_pool_publishes_metrics () =
  let jobs = Metrics.counter "runtime.pool.jobs" in
  let jobs0 = Metrics.value jobs in
  let busy0 = Metrics.(gauge_value (gauge "runtime.pool.busy_s")) in
  Mdh_runtime.Pool.with_pool ~num_domains:2 (fun pool ->
      Mdh_runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:64 (fun i ->
          ignore (Sys.opaque_identity (i * i))));
  check Alcotest.bool "jobs counted" true (Metrics.value jobs > jobs0);
  check Alcotest.bool "busy time accumulated" true
    (Metrics.(gauge_value (gauge "runtime.pool.busy_s")) >= busy0);
  check Alcotest.bool "capacity positive" true
    (Metrics.(gauge_value (gauge "runtime.pool.capacity_s")) > 0.0);
  let u = Metrics.(gauge_value (gauge "runtime.pool.utilization")) in
  check Alcotest.bool "utilization in [0,1]" true (u >= 0.0 && u <= 1.0)

let suite =
  let tc = Alcotest.test_case in
  ( "obs",
    [ tc "clock monotone" `Quick test_clock_monotone;
      tc "span nesting and timing" `Quick test_span_nesting_and_timing;
      tc "disabled tracing emits nothing" `Quick test_disabled_emits_nothing;
      tc "span survives exception" `Quick test_span_survives_exception;
      tc "worker-domain spans collected" `Quick test_worker_domain_spans_collected;
      tc "histogram bucket edges" `Quick test_histogram_bucket_edges;
      tc "histogram observe" `Quick test_histogram_observe;
      tc "counter roundtrip" `Quick test_counter_roundtrip;
      tc "metric kind clash rejected" `Quick test_kind_clash_rejected;
      tc "chrome trace well-formed" `Quick test_chrome_trace_wellformed;
      tc "chrome trace empty is valid" `Quick test_chrome_trace_empty_is_valid;
      tc "metrics JSON parses" `Quick test_metrics_json_parses;
      tc "tuner run emits metrics" `Quick test_tune_emits_metrics;
      tc "bit-identity: tracing on vs off (all workloads)" `Quick
        test_trace_bit_identity_all_workloads;
      tc "pool publishes metrics at shutdown" `Quick test_pool_publishes_metrics ] )
