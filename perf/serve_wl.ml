(* serve-mix: the real mdhd daemon as a child process, driven by two
   client threads in a closed loop through Mdh_serve.Client. A closed
   loop fits because `mdhc --remote` callers wait for their reply.

   The daemon runs with its default configuration on a socket and a fresh
   tuning database inside the results directory. Its set-up (setup_s,
   three times) runs from spawn through the first healthy reply and a
   warm-up that asks every plan and tune the window can ask, so the
   window is steady serving, mostly reads. cpu_ms_per_op is the daemon's
   CPU time over the window per completed request.

   Each client's ops come in seeded decks of twenty: plan 35 % (paper
   input 1, gpu or cpu), tune 35 % (input 1, gpu, seeds 1-8), exec 20 %
   (test input, the daemon checks the output against the workload's
   oracle), optimize 5 % and check 5 %; the workloads of each op kind come
   in seeded decks of the catalogue.

   A reply is correct when it is ok and: a tune is "tuned", to the same
   schedule as the first tune of that (workload, seed); a plan has the
   digest of the first plan of that (workload, device); an exec reports
   checked=true; a check reports no errors. Shed, failed and mismatched
   requests all count as failed. *)

module Client = Mdh_serve.Client
module Jin = Mdh_support.Json_in
module J = Mdh_obs.Json
module Rng = Mdh_support.Rng
module W = Mdh_workloads.Workload
module Trace = Mdh_obs.Trace

let clients = 2
let catalogue =
  Array.of_list (List.map (fun (w : W.t) -> w.W.wl_name) Mdh_workloads.Catalog.all)

let mdhd_exe () =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "mdhd.exe"))

type daemon = { pid : int; socket : string; db : string; log : string }

let remove_db db =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ db; db ^ ".lock"; db ^ ".tmp"; db ^ ".corrupt" ]

let spawn ~dir =
  let stem = Filename.concat dir (Printf.sprintf "mdhd-%d" (Unix.getpid ())) in
  let d = { pid = 0; socket = stem ^ ".sock"; db = stem ^ ".db"; log = stem ^ ".log" } in
  remove_db d.db;
  let log = Unix.openfile d.log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let env =
    Array.append
      [| "MDH_TUNING_DB=" ^ d.db; "TMPDIR=" ^ dir |]
      (Array.of_list
         (List.filter
            (fun v ->
              not
                (String.starts_with ~prefix:"MDH_TUNING_DB=" v
                || String.starts_with ~prefix:"TMPDIR=" v
                || String.starts_with ~prefix:"MDH_FAULTS=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let exe = mdhd_exe () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) @@ fun () ->
    Unix.create_process_env exe
      [| exe; "--socket"; d.socket; "--tuning-db"; d.db |]
      env Unix.stdin log log
  in
  { d with pid }

let request ?(timeout_s = 60.0) d op fields =
  Client.request ~timeout_s ~socket:d.socket ~op fields

let rec wait_healthy d deadline =
  match request ~timeout_s:1.0 d "health" [] with
  | Ok { Client.ok = true; _ } -> ()
  | _ ->
    (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> ()
    | _ -> failwith "serve-mix: mdhd exited during start-up");
    if Meter.wall () > deadline then failwith "serve-mix: mdhd never became healthy";
    Thread.delay 0.005;
    wait_healthy d deadline

(* SIGTERM drains the daemon; a daemon that does not exit within ten
   seconds is killed. Always reaps the child. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Meter.wall () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Meter.wall () < deadline ->
      Thread.delay 0.01;
      reap ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  remove_db d.db

(* --- the op mix --- *)

type op = { op : string; fields : (string * string) list; key : string }

let s = J.quote
let tune_seeds ~smoke = if smoke then 2 else 8

(* a client's stream of ops: decks of twenty op kinds, and for each kind
   a deck of the catalogue, both in seeded orders *)
type mix = {
  rng : Rng.t;
  smoke : bool;
  mutable kinds : string list;
  wls : (string, string list) Hashtbl.t;  (* by op kind *)
}

let mix ~smoke rng = { rng; smoke; kinds = []; wls = Hashtbl.create 5 }

let shuffled rng a =
  let a = Array.copy a in
  Rng.shuffle rng a;
  Array.to_list a

let next_workload m kind =
  let deck =
    match Hashtbl.find_opt m.wls kind with
    | Some (_ :: _ as d) -> d
    | _ -> shuffled m.rng catalogue
  in
  Hashtbl.replace m.wls kind (List.tl deck);
  List.hd deck

let next_op m =
  if m.kinds = [] then
    m.kinds <-
      shuffled m.rng
        (Array.concat
           [ Array.make 7 "plan"; Array.make 7 "tune"; Array.make 4 "exec";
             [| "optimize"; "check" |] ]);
  let kind = List.hd m.kinds in
  m.kinds <- List.tl m.kinds;
  let wl = next_workload m kind in
  let dev = if Rng.bool m.rng then "gpu" else "cpu" in
  match kind with
  | "plan" ->
    { op = kind; key = wl ^ "|" ^ dev;
      fields = [ ("workload", s wl); ("device", s dev); ("input", s "1") ] }
  | "tune" ->
    let seed = Rng.int_in m.rng 1 (tune_seeds ~smoke:m.smoke) in
    { op = kind; key = wl ^ "|" ^ string_of_int seed;
      fields =
        [ ("workload", s wl); ("device", s "gpu"); ("input", s "1");
          ("seed", string_of_int seed) ] }
  | "exec" ->
    { op = kind; key = wl;
      fields = [ ("workload", s wl); ("seed", string_of_int (Rng.int_in m.rng 1 1000)) ] }
  | "optimize" ->
    { op = kind; key = wl;
      fields = [ ("workload", s wl); ("device", s dev); ("input", s "1") ] }
  | _ -> { op = kind; key = wl; fields = [ ("workload", s wl) ] }

(* what a correct reply to [o] carries, as (table key, value that must
   repeat); checks that need no table return the empty key *)
let verdict o (result : Jin.t) =
  let str k = Jin.get_string result k in
  match o.op with
  | "tune" -> (
    match (str "status", str "schedule") with
    | Some "tuned", Some sched -> Ok ("tune|" ^ o.key, sched)
    | _ -> Error "tune did not finish")
  | "plan" -> (
    match str "digest" with
    | Some digest -> Ok ("plan|" ^ o.key, digest)
    | None -> Error "plan without digest")
  | "exec" ->
    if Jin.get_bool result "checked" = Some true then Ok ("", "")
    else Error "exec output not checked"
  | "check" ->
    if Jin.get_float result "errors" = Some 0.0 then Ok ("", "")
    else Error "check reported errors"
  | _ -> Ok ("", "")

type tally = {
  mu : Mutex.t;
  first : (string, string) Hashtbl.t;
  mutable lat : (string * float * bool) list;  (* op, seconds, traced *)
  mutable attempted : int;
  mutable failed : int;
  mutable shed : int;
}

let client ~d ~stop ~tally m =
  let n = ref 0 in
  while Meter.wall () < stop do
    let o = next_op m in
    let id = Printf.sprintf "%d:%d" (Thread.id (Thread.self ())) !n in
    incr n;
    let traced0 = Trace.enabled () in
    let t0 = Meter.wall () in
    let reply =
      Layers.span "serve" ~id o.op (fun () -> request d o.op o.fields)
    in
    let dt = Meter.wall () -. t0 in
    let traced = traced0 && Trace.enabled () in
    Mutex.lock tally.mu;
    tally.attempted <- tally.attempted + 1;
    let fail why =
      Printf.printf "[e2e] serve-mix: %s %s: %s\n%!" o.op o.key why;
      tally.failed <- tally.failed + 1
    in
    let backoff =
      match reply with
      | Ok { Client.ok = true; result = Some result; _ } ->
        (match verdict o result with
        | Ok ("", _) -> tally.lat <- (o.op, dt, traced) :: tally.lat
        | Ok (k, v) -> (
          match Hashtbl.find_opt tally.first k with
          | Some v0 when v0 <> v -> fail (Printf.sprintf "%s, first %s" v v0)
          | seen ->
            if seen = None then Hashtbl.add tally.first k v;
            tally.lat <- (o.op, dt, traced) :: tally.lat)
        | Error why -> fail why);
        0.0
      | Ok { Client.code = Some "overloaded"; retry_after_s; _ } ->
        tally.shed <- tally.shed + 1;
        tally.failed <- tally.failed + 1;
        Option.value ~default:0.01 retry_after_s
      | Ok { Client.error; _ } ->
        fail (Option.value ~default:"error reply" error);
        0.0
      | Error e ->
        fail e;
        0.0
    in
    Mutex.unlock tally.mu;
    if backoff > 0.0 then Thread.delay backoff
  done

(* the daemon's registry, through the protocol's metrics op *)
let registry d =
  match request d "metrics" [] with
  | Ok { Client.ok = true; result = Some r; _ } -> (
    match Jin.member "registry" r with Some reg -> reg | None -> Jin.Obj [])
  | _ -> failwith "serve-mix: metrics request failed"

let counter reg name = Option.value ~default:0.0 (Jin.get_float reg name)

let hist reg name field =
  match Jin.member name reg with
  | Some h -> Option.value ~default:0.0 (Jin.get_float h field)
  | None -> 0.0

(* The warm-up fills the database with every tune the window can ask
   for and the plan cache with every plan, so the window is steady
   serving, mostly reads; tune-cold measures the writes. *)
let warmup ~smoke =
  let names = Array.to_list catalogue in
  List.concat_map
    (fun wl ->
      List.init (tune_seeds ~smoke) (fun i ->
          ( "tune",
            [ ("workload", s wl); ("device", s "gpu"); ("input", s "1");
              ("seed", string_of_int (i + 1)) ] ))
      @ List.map
          (fun dev -> ("plan", [ ("workload", s wl); ("device", s dev); ("input", s "1") ]))
          [ "gpu"; "cpu" ])
    names
  @ [ ("exec", [ ("workload", s "matmul") ]);
      ("optimize", [ ("workload", s "matmul"); ("device", s "gpu"); ("input", s "1") ]);
      ("check", [ ("workload", s "matmul") ]) ]

let count_warnings log =
  In_channel.with_open_text log In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.starts_with ~prefix:"mdh:" l)
  |> List.length

(* spawn, wait for health, warm up; the daemon is stopped on failure *)
let start_daemon ~dir ~smoke =
  let d = Layers.span "serve" ~id:"setup" "spawn" (fun () -> spawn ~dir) in
  match
    Layers.span "serve" ~id:"setup" "health" (fun () ->
        wait_healthy d (Meter.wall () +. 30.0));
    List.iter
      (fun (op, fields) ->
        match Layers.span "serve" ~id:"setup" op (fun () -> request d op fields) with
        | Ok { Client.ok = true; _ } -> ()
        | _ -> failwith ("serve-mix: warm-up " ^ op ^ " failed"))
      (warmup ~smoke)
  with
  | () -> d
  | exception e ->
    stop d;
    raise e

let run ~dir ~smoke ~seed ~seconds ~traced =
  let setup_table = Layers.create () and table = Layers.create () in
  let reps = if smoke then 1 else 3 in
  (* Each measured set-up runs a daemon to the end of its warm-up and
     stops it, so its CPU time is exact once the daemon is reaped; the
     window then gets a daemon of its own. *)
  let setup_costs =
    List.init reps (fun k ->
        Trace.set_enabled traced;
        Trace.clear ();
        let c0 = Meter.children_cpu () in
        let d, cost = Meter.measure (fun () -> start_daemon ~dir ~smoke) in
        Trace.set_enabled false;
        stop d;
        if k = reps - 1 then Layers.drain setup_table ~ops:1;
        { cost with Meter.cpu_s = Meter.children_cpu () -. c0 })
  in
  let d = start_daemon ~dir ~smoke in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let pid = string_of_int d.pid in
  let reg0 = registry d and hwm0 = Meter.peak_rss_mb pid in
  let daemon_cpu0 = Meter.proc_cpu pid in
  let tally =
    { mu = Mutex.create (); first = Hashtbl.create 64; lat = []; attempted = 0;
      failed = 0; shed = 0 }
  in
  let master = Rng.create seed in
  let t_start = Meter.wall () in
  let stop_at = t_start +. seconds in
  let threads =
    List.init clients (fun _ ->
        let m = mix ~smoke (Rng.split master) in
        Thread.create (fun () -> client ~d ~stop:stop_at ~tally m) ())
  in
  (* a traced run flips tracing every quarter second; a request counts
     as traced when tracing was on at both its ends *)
  if traced then begin
    while Meter.wall () < stop_at do
      Trace.set_enabled (not (Trace.enabled ()));
      Thread.delay 0.25
    done;
    Trace.set_enabled false
  end;
  List.iter Thread.join threads;
  let elapsed = Meter.wall () -. t_start in
  let cpu = Meter.proc_cpu pid -. daemon_cpu0 in
  Layers.drain table ~ops:tally.attempted;
  let hwm1 = Meter.peak_rss_mb pid and reg1 = registry d in
  let warnings = count_warnings d.log in
  let all = List.map (fun (_, dt, _) -> dt) tally.lat in
  let n = List.length tally.lat in
  let e2e =
    Report.
      [ metric ~n:reps "setup_s" "s"
          (Sample.median (List.map (fun s -> s.Meter.cpu_s) setup_costs));
        metric ~n "cpu_ms_per_op" "ms" (1e3 *. cpu /. float_of_int n);
        metric "peak_rss_mb" "MB" hwm1 ]
  in
  let delta name = counter reg1 name -. counter reg0 name in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let total = List.fold_left ( +. ) 0.0 all in
  let op_frac op =
    let t =
      List.fold_left (fun acc (o, dt, _) -> if o = op then acc +. dt else acc) 0.0 tally.lat
    in
    Report.metric ~n ("serve." ^ op ^ ".time_frac") "frac" (ratio t total)
  in
  let daemon_mean =
    ratio
      (hist reg1 "serve.request_s" "sum" -. hist reg0 "serve.request_s" "sum")
      (hist reg1 "serve.request_s" "count" -. hist reg0 "serve.request_s" "count")
  in
  let client_mean = Sample.mean all in
  let split traced =
    List.filter_map (fun (_, dt, tr) -> if tr = traced then Some dt else None) tally.lat
  in
  let per_layer =
    if not traced then []
    else
      List.map op_frac Report.serve_ops
      @ Report.
          [ metric ~n:reps "wall.setup_s" "s"
              (Sample.median (List.map (fun s -> s.Meter.wall_s) setup_costs));
            metric ~n "wall.p50_ms" "ms" (1e3 *. Sample.median all);
            metric ~n "wall.p90_ms" "ms" (1e3 *. Sample.percentile all 0.9);
            metric ~n "wall.ops_per_s" "1/s" (float_of_int n /. elapsed);
            metric ~n "serve.transport_frac" "frac"
              (ratio (client_mean -. daemon_mean) client_mean);
            metric "serve.shed" "count" (float_of_int tally.shed);
            metric "serve.errors" "count" (delta "serve.errors");
            metric "serve.daemon_warnings" "count" (float_of_int warnings);
            metric "serve.rss_growth_mb" "MB" (hwm1 -. hwm0);
            metric "atf.tuning_db.hit_ratio" "ratio"
              (ratio (delta "atf.tuning_db.hits") (delta "atf.tuning_db.lookups"));
            metric "lowering.plan_cache.hit_ratio" "ratio"
              (ratio (delta "lowering.plan_cache.hits")
                 (delta "lowering.plan_cache.hits" +. delta "lowering.plan_cache.misses"));
            metric ~n:(List.length (split true)) "obs.trace_overhead_frac" "frac"
              ((Sample.median (split true) /. Sample.median (split false)) -. 1.0) ]
  in
  Report.
    { workload = "serve-mix"; seed; seconds; traced; attempted = tally.attempted;
      failed = tally.failed; correct = tally.failed = 0; e2e; per_layer;
      tables = (if traced then [ ("setup", setup_table); ("window", table) ] else []) }
