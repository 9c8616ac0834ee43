(* What one workload run reports, the metric vocabulary BENCHMARK.json
   declares, and the two renderings: human lines plus the one-line JSON
   result the benchmark contract reads, and the mdh-bench-e2e/1 artifact
   that e2e-compare consumes. *)

module J = Mdh_obs.Json

type metric = { name : string; value : float; unit_ : string; n : int }
(* [n] is the sample count behind the value (0 when it is not a
   statistic over samples) *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  attempted : int;
  failed : int;
  correct : bool;
  e2e : metric list;  (* untraced runs *)
  per_layer : metric list;  (* traced runs; workload-specific ones only *)
  tables : (string * Layers.table) list;  (* traced runs *)
}

let metric ?(n = 0) name unit_ value = { name; value; unit_; n }

(* End-to-end metrics: every workload reports each of them, in CPU time
   (see Meter); what an "op" is differs per workload (see README.md). *)
let e2e_spec = [ ("setup_s", "s"); ("cpu_ms_per_op", "ms"); ("peak_rss_mb", "MB") ]

let case_labels =
  [ "matmul"; "matvec"; "dot"; "bmatmul"; "ccsd_t"; "jacobi_3d"; "mbbs"; "mcc";
    "prl"; "kmeans" ]

let serve_ops = [ "plan"; "tune"; "exec"; "optimize"; "check" ]

(* Per-layer metrics. Every traced run reports all of them; one that does
   not apply to the workload reads 0, which is why the only times among
   them are the wall-clock ones every workload has: the others are given
   as shares of the attributed time, or as rates. *)
let per_layer_spec =
  [ ("wall.setup_s", "s"); ("wall.p50_ms", "ms"); ("wall.p90_ms", "ms");
    ("wall.ops_per_s", "1/s") ]
  @ List.map (fun l -> (l ^ ".self_frac", "frac")) Layers.names
  @ List.map (fun l -> (l ^ ".setup_frac", "frac")) Layers.names
  @ List.concat_map
      (fun c ->
        [ ("runtime." ^ c ^ ".gflops", "GFLOP/s");
          ("runtime." ^ c ^ ".tail_ratio", "ratio");
          ("runtime." ^ c ^ ".dispatch_frac", "frac") ])
      case_labels
  @ [ ("runtime.gflops", "GFLOP/s"); ("runtime.peak_frac", "frac");
      ("runtime.fastpath_runs", "count"); ("runtime.specializer_runs", "count");
      ("runtime.walker_runs", "count");
      ("runtime.specializer.compile_frac", "frac");
      ("atf.evaluations", "count"); ("atf.evals_per_s", "1/s");
      ("atf.cost_cache.hit_ratio", "ratio"); ("atf.tuned_vs_default", "ratio");
      ("atf.tuning_db.hit_ratio", "ratio");
      ("lowering.plan_cache.hit_ratio", "ratio");
      ("rewrite.rules_applied", "count"); ("rewrite.flops_saved_frac", "frac") ]
  @ List.map (fun op -> ("serve." ^ op ^ ".time_frac", "frac")) serve_ops
  @ [ ("serve.transport_frac", "frac"); ("serve.shed", "count");
      ("serve.errors", "count"); ("serve.daemon_warnings", "count");
      ("serve.rss_growth_mb", "MB"); ("obs.trace_overhead_frac", "frac") ]

let table_metrics tables =
  let frac suffix table =
    match List.assoc_opt table tables with
    | None -> []
    | Some t ->
      List.map (fun (l, f) -> metric (l ^ suffix) "frac" f) (Layers.fractions t)
  in
  frac ".self_frac" "window" @ frac ".setup_frac" "setup"

(* the reported set, in spec order: declared metrics the workload did not
   produce read 0 *)
let fill spec given =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) given with
      | Some m ->
        if m.unit_ <> unit_ then
          invalid_arg (Printf.sprintf "metric %s: unit %s, declared %s" name m.unit_ unit_);
        m
      | None -> metric name unit_ 0.0)
    spec

let reported r =
  if r.traced then fill per_layer_spec (table_metrics r.tables @ r.per_layer)
  else begin
    List.iter
      (fun (name, _) ->
        if not (List.exists (fun m -> m.name = name) r.e2e) then
          invalid_arg ("workload did not report " ^ name))
      e2e_spec;
    fill e2e_spec r.e2e
  end

(* every digit: the values are compared across runs *)
let number = Mdh_serve.Protocol.number

let metrics_json ms =
  J.obj
    (List.map
       (fun m ->
         (m.name, J.obj [ ("value", number m.value); ("unit", J.quote m.unit_) ]))
       ms)

let result_line r =
  J.obj
    [ ("correct", string_of_bool r.correct);
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("metrics", metrics_json (reported r)) ]

let artifact r =
  J.obj
    [ ("schema", J.quote "mdh-bench-e2e/1"); ("workload", J.quote r.workload);
      ("seed", string_of_int r.seed); ("seconds", number r.seconds);
      ("traced", string_of_bool r.traced);
      ("samples", J.obj (List.map (fun m -> (m.name, string_of_int m.n)) (reported r)));
      ("layers", J.obj (List.map (fun (n, t) -> (n, Layers.to_json t)) r.tables));
      ("result", result_line r) ]

let print r =
  List.iter
    (fun m ->
      Printf.printf "[e2e] %-10s %-36s %16.6g %-8s n=%d\n" r.workload m.name
        m.value m.unit_ m.n)
    (reported r);
  Printf.printf "[e2e] %-10s attempted %d, failed %d, outputs %s\n%!" r.workload
    r.attempted r.failed
    (if r.correct then "correct" else "WRONG")
