(* Load generator for the mdhd daemon: boots an in-process Server on its
   default config, then drives it with client threads at increasing
   concurrency levels over a fixed wall-time window each. Every request
   is a [plan] op (heavier than [health], but one plan builds in a few
   microseconds, so the bench measures the serving path, not lowering).

   Per level it reports requests served, p50/p99 latency, throughput and
   the shed rate (structured [overloaded] replies / attempts) — the
   admission-control headline. Results go to stdout and
   BENCH_serve.json (schema mdh-serve/1), gated by
   scripts/bench_baselines.json ["serve"] via main.exe gate. The JSON is
   a run artifact, not a source: CI uploads it, .gitignore excludes
   it. *)

module Server = Mdh_serve.Server
module Client = Mdh_serve.Client
module J = Mdh_obs.Json

let levels = [ 1; 2; 4; 8 ]
let wall_s = 0.6

type tally = {
  mutable ok : int;
  mutable shed : int;
  mutable errors : int;
  mutable latencies : float list;  (* seconds, successful requests only *)
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

let client_loop ~socket ~stop_at tally mu =
  let rec go () =
    if Unix.gettimeofday () < stop_at then begin
      let t0 = Unix.gettimeofday () in
      let reply =
        Client.request ~timeout_s:10.0 ~socket ~op:"plan"
          [ ("workload", J.quote "matvec"); ("device", J.quote "cpu") ]
      in
      let dt = Unix.gettimeofday () -. t0 in
      Mutex.lock mu;
      (match reply with
      | Ok { Client.ok = true; _ } ->
        tally.ok <- tally.ok + 1;
        tally.latencies <- dt :: tally.latencies
      | Ok { Client.code = Some "overloaded"; retry_after_s; _ } ->
        tally.shed <- tally.shed + 1;
        Mutex.unlock mu;
        Thread.delay (Option.value ~default:0.01 retry_after_s);
        Mutex.lock mu
      | Ok _ | Error _ -> tally.errors <- tally.errors + 1);
      Mutex.unlock mu;
      go ()
    end
  in
  go ()

let bench_level ~socket concurrency =
  let tally = { ok = 0; shed = 0; errors = 0; latencies = [] } in
  let mu = Mutex.create () in
  let stop_at = Unix.gettimeofday () +. wall_s in
  let clients =
    List.init concurrency (fun _ ->
        Thread.create (fun () -> client_loop ~socket ~stop_at tally mu) ())
  in
  List.iter Thread.join clients;
  let attempts = tally.ok + tally.shed + tally.errors in
  let sorted = Array.of_list tally.latencies in
  Array.sort compare sorted;
  let p50 = percentile sorted 0.50 and p99 = percentile sorted 0.99 in
  let throughput = float_of_int tally.ok /. wall_s in
  let shed_rate =
    if attempts = 0 then 0.0 else float_of_int tally.shed /. float_of_int attempts
  in
  Printf.printf
    "[serve] c=%d  ok %5d  shed %4d  err %2d  p50 %6.2fms  p99 %6.2fms  %7.1f req/s  shed rate %.3f\n%!"
    concurrency tally.ok tally.shed tally.errors (p50 *. 1e3) (p99 *. 1e3)
    throughput shed_rate;
  J.obj
    [ ("concurrency", string_of_int concurrency);
      ("requests", string_of_int attempts);
      ("ok", string_of_int tally.ok);
      ("shed", string_of_int tally.shed);
      ("errors", string_of_int tally.errors);
      ("p50_ms", J.number (p50 *. 1e3));
      ("p99_ms", J.number (p99 *. 1e3));
      ("throughput_rps", J.number throughput);
      ("shed_rate", J.number shed_rate) ]

let run () =
  Mdh_atf.Tuning_db.set_ambient None;
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdh-serve-bench-%d.sock" (Unix.getpid ()))
  in
  let server =
    match Server.create (Server.default_config ~socket) with
    | Ok t -> t
    | Error e -> failwith ("serve bench: " ^ e)
  in
  let daemon = Thread.create Server.serve server in
  Fun.protect ~finally:(fun () ->
      Server.request_shutdown server;
      Thread.join daemon)
  @@ fun () ->
  Printf.printf "[serve] in-process mdhd on %s, %.1fs per level\n%!" socket
    wall_s;
  (* Serve one request outside the timed windows so level 1 is not
     dominated by the daemon's first, cold request. *)
  (match
     Client.request ~timeout_s:10.0 ~socket ~op:"plan"
       [ ("workload", J.quote "matvec"); ("device", J.quote "cpu") ]
   with
  | Ok { Client.ok = true; _ } -> ()
  | Ok { Client.error; _ } ->
    failwith
      ("serve bench: warmup failed: " ^ Option.value ~default:"?" error)
  | Error e -> failwith ("serve bench: warmup failed: " ^ e));
  let rows = List.map (fun c -> bench_level ~socket c) levels in
  let json =
    J.obj
      [ ("schema", J.quote "mdh-serve/1");
        ("op", J.quote "plan");
        ("wall_s_per_level", J.number wall_s);
        ("levels", J.arr rows) ]
  in
  Out_channel.with_open_text "BENCH_serve.json" (fun oc ->
      output_string oc json;
      output_char oc '\n');
  print_endline "[serve] wrote BENCH_serve.json"
