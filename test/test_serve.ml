(* mdhd robustness contract, in-process: admission control and load
   shedding, deadline suspension with bit-identical resume, crash
   containment under injected serve.* faults, frame/timeout guards, and
   graceful drain. The daemon binary's end-to-end behaviour (signals,
   exit codes) is pinned by scripts/check.sh's serve stage; these tests
   pin the Server/Protocol/Client semantics the binary is built from. *)

module Server = Mdh_serve.Server
module Client = Mdh_serve.Client
module Protocol = Mdh_serve.Protocol
module Jin = Mdh_support.Json_in
module J = Mdh_obs.Json
module Fault = Mdh_fault.Fault
module W = Mdh_workloads.Workload
module Device = Mdh_machine.Device
module Schedule = Mdh_lowering.Schedule
module Cost = Mdh_lowering.Cost
module Tuner = Mdh_atf.Tuner
module Op = Mdh_serve.Op
module Diag = Mdh_analysis.Diagnostic

let check = Alcotest.check
let cpu = Device.xeon6140_like

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdh-serve-%d-%d.sock" (Unix.getpid ()) !n)

(* run a server on its own thread for the duration of [f]; always drain
   and join so a failing test cannot leak a daemon into the next one *)
let with_server ?(configure = fun c -> c) f =
  Mdh_atf.Tuning_db.set_ambient None;
  let socket = fresh_socket () in
  let config = configure (Server.default_config ~socket) in
  let t =
    match Server.create config with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let thread = Thread.create Server.serve t in
  Fun.protect
    ~finally:(fun () ->
      Server.request_shutdown t;
      Thread.join thread;
      Fault.disarm ();
      (* remove leftover checkpoints so the state dir check stays honest *)
      (match Sys.readdir (Server.state_dir t) with
      | names ->
        Array.iter
          (fun n ->
            try Sys.remove (Filename.concat (Server.state_dir t) n)
            with Sys_error _ -> ())
          names;
        (try Unix.rmdir (Server.state_dir t) with Unix.Unix_error _ -> ())
      | exception Sys_error _ -> ()))
    (fun () -> f ~socket t)

let rpc ~socket line =
  match Client.rpc ~timeout_s:30.0 ~socket line with
  | Ok r -> r
  | Error e -> Alcotest.fail ("transport: " ^ e)

let expect_ok (r : Client.reply) =
  if not r.Client.ok then
    Alcotest.fail
      (Printf.sprintf "request failed: %s: %s"
         (Option.value ~default:"?" r.Client.code)
         (Option.value ~default:"?" r.Client.error));
  match r.Client.result with
  | Some body -> body
  | None -> Alcotest.fail "ok reply without result"

let rstr body name =
  match Jin.get_string body name with
  | Some s -> s
  | None -> Alcotest.fail ("reply missing " ^ name)

(* --- protocol --- *)

let test_protocol_parse_and_envelope () =
  (match Protocol.parse_request {|{"op":"tune","id":42,"budget":7}|} with
  | Error e -> Alcotest.fail e
  | Ok req ->
    check Alcotest.string "op" "tune" req.Protocol.req_op;
    check (Alcotest.option Alcotest.int) "int field" (Some 7)
      (Protocol.int_field req "budget");
    let ok = Protocol.ok_reply (Some req) ~op:"tune" [ ("x", "1") ] in
    check Alcotest.string "id echoed" "42"
      (match Jin.parse ok with
      | Jin.Obj kvs -> (
        match List.assoc "id" kvs with
        | Jin.Num f -> Printf.sprintf "%.0f" f
        | _ -> "?")
      | _ -> "?");
    let err = Protocol.error_reply ~retry_after_s:0.25 ~request:req
        ~code:"overloaded" "queue full"
    in
    check (Alcotest.option (Alcotest.float 1e-12)) "retry hint" (Some 0.25)
      (Jin.get_float (Jin.parse err) "retry_after_s"));
  List.iter
    (fun line ->
      match Protocol.parse_request line with
      | Ok _ -> Alcotest.fail ("accepted bad request: " ^ line)
      | Error _ -> ())
    [ "not json"; "[1,2]"; {|{"id":1}|}; {|{"op":7}|} ]

let test_protocol_number_round_trip () =
  List.iter
    (fun f ->
      let s = Protocol.number f in
      match float_of_string_opt s with
      | Some g -> check (Alcotest.float 0.0) ("round trip " ^ s) f g
      | None -> Alcotest.fail ("unparsable number " ^ s))
    [ 0.0; 1.0; -3.5; 0.00238926; 1.7976931348623157e308; 4.9e-324;
      0.1 +. 0.2 ]

(* --- request handling --- *)

let test_basic_ops () =
  with_server (fun ~socket _ ->
      let health = expect_ok (rpc ~socket {|{"op":"health"}|}) in
      check Alcotest.string "status" "ok" (rstr health "status");
      let plan =
        expect_ok
          (rpc ~socket {|{"op":"plan","workload":"matvec","device":"cpu"}|})
      in
      let matvec = Mdh_workloads.Linalg.matvec in
      let md = W.to_md_hom matvec matvec.W.test_params in
      let sched = Mdh_lowering.Lower.mdh_default md cpu in
      let plan_ref =
        match Mdh_lowering.Plan.build md cpu sched with
        | Ok p -> p
        | Error e -> Alcotest.fail e
      in
      check Alcotest.string "plan digest matches local lowering"
        (Mdh_lowering.Plan.digest plan_ref)
        (rstr plan "digest");
      let exec =
        expect_ok
          (rpc ~socket {|{"op":"exec","workload":"dot","seed":3}|})
      in
      check (Alcotest.option Alcotest.bool) "oracle checked" (Some true)
        (Jin.get_bool exec "checked");
      let chk =
        expect_ok (rpc ~socket {|{"op":"check","workload":"matvec"}|})
      in
      check (Alcotest.option Alcotest.(float 0.0)) "no errors" (Some 0.0)
        (Jin.get_float chk "errors");
      let m = rpc ~socket {|{"op":"metrics"}|} in
      (match Jin.member "registry" (expect_ok m) with
      | Some (Jin.Obj kvs) ->
        check Alcotest.bool "serve counters exported" true
          (List.mem_assoc "serve.requests" kvs)
      | _ -> Alcotest.fail "metrics registry is not an object");
      (* piggybacked metrics on any request *)
      let h2 = rpc ~socket {|{"op":"health","metrics":true}|} in
      check Alcotest.bool "metrics piggyback" true
        (Option.is_some h2.Client.metrics))

let test_structured_errors () =
  with_server (fun ~socket _ ->
      let bad op_line code =
        let r = rpc ~socket op_line in
        check Alcotest.bool "not ok" false r.Client.ok;
        check (Alcotest.option Alcotest.string) "code" (Some code)
          r.Client.code
      in
      bad {|{"op":"frobnicate"}|} "unknown_op";
      bad {|{"op":"tune"}|} "bad_request";
      bad {|{"op":"tune","workload":"nope"}|} "bad_request";
      bad {|{"op":"tune","workload":"matmul","device":"tpu"}|} "bad_request";
      bad {|{"op":"tune","workload":"matmul","resume":"../../etc/passwd"}|}
        "bad_request";
      bad "this is not json" "bad_request";
      (* a bad request never kills the connection's successor *)
      let h = expect_ok (rpc ~socket {|{"op":"health"}|}) in
      check Alcotest.string "daemon still healthy" "ok" (rstr h "status"))

let test_tune_matches_local () =
  with_server (fun ~socket _ ->
      let body =
        expect_ok
          (rpc ~socket
             {|{"op":"tune","workload":"matmul","device":"cpu","budget":40,"seed":2,"strategy":"anneal"}|})
      in
      check Alcotest.string "status" "tuned" (rstr body "status");
      let matmul = Mdh_workloads.Linalg.matmul in
      (* requests default to the "test" input set, like the handlers *)
      let md = W.to_md_hom matmul matmul.W.test_params in
      let reference =
        match
          Tuner.tune ~strategy:Tuner.Anneal ~budget:40 ~seed:2 ~saturate:true
            md cpu Cost.tuned_codegen
        with
        | Ok t -> t
        | Error e -> Alcotest.fail e
      in
      check Alcotest.string "schedule matches local tuner"
        (Schedule.to_string reference.Tuner.schedule)
        (rstr body "schedule");
      match Jin.get_float body "estimated_s" with
      | Some est ->
        check (Alcotest.float 0.0) "estimated_s exact over the wire"
          reference.Tuner.estimated_s est
      | None -> Alcotest.fail "no estimated_s")

let test_deadline_suspends_and_resumes_bit_identical () =
  with_server (fun ~socket t ->
      let req resume deadline =
        Printf.sprintf
          {|{"op":"tune","workload":"matmul","device":"cpu","budget":2000,"seed":5,"strategy":"anneal"%s%s}|}
          (if resume then {|,"resume":true|} else "")
          (match deadline with
          | Some d -> Printf.sprintf {|,"deadline_s":%g|} d
          | None -> "")
      in
      let suspended = expect_ok (rpc ~socket (req false (Some 1e-7))) in
      check Alcotest.string "suspended" "suspended" (rstr suspended "status");
      let token = rstr suspended "token" in
      check Alcotest.bool "checkpoint on disk" true
        (Sys.file_exists (Filename.concat (Server.state_dir t) token));
      (* a second suspended round must hand back the same token: the
         token is a pure function of the request *)
      let again = expect_ok (rpc ~socket (req true (Some 1e-7))) in
      check Alcotest.string "stable token" token (rstr again "token");
      let resumed = expect_ok (rpc ~socket (req true None)) in
      check Alcotest.string "resumed to completion" "tuned"
        (rstr resumed "status");
      check Alcotest.bool "checkpoint deleted on completion" false
        (Sys.file_exists (Filename.concat (Server.state_dir t) token));
      let matmul = Mdh_workloads.Linalg.matmul in
      let md = W.to_md_hom matmul matmul.W.test_params in
      let reference =
        match
          Tuner.tune ~strategy:Tuner.Anneal ~budget:2000 ~seed:5
            ~saturate:true md cpu Cost.tuned_codegen
        with
        | Ok t -> t
        | Error e -> Alcotest.fail e
      in
      check Alcotest.string "resume is bit-identical to uninterrupted"
        (Schedule.to_string reference.Tuner.schedule)
        (rstr resumed "schedule"))

let test_max_deadline_cap_applies () =
  with_server
    ~configure:(fun c -> { c with Server.max_deadline_s = Some 1e-7 })
    (fun ~socket _ ->
      let body =
        expect_ok
          (rpc ~socket
             {|{"op":"tune","workload":"matmul","device":"cpu","budget":2000,"seed":9,"strategy":"anneal"}|})
      in
      check Alcotest.string "server cap suspends an uncapped request"
        "suspended" (rstr body "status"))

(* --- admission control --- *)

let test_load_shedding () =
  with_server
    ~configure:(fun c -> { c with Server.workers = 1; max_queue = 0 })
    (fun ~socket _ ->
      (match Fault.configure "serve.handle:delay=700" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let slow = ref None in
      let th =
        Thread.create
          (fun () -> slow := Some (Client.rpc ~socket {|{"op":"health"}|}))
          ()
      in
      Thread.delay 0.3;
      (* the lone worker is stalled in the delayed handler: the accept
         loop must shed, not queue *)
      let r = rpc ~socket {|{"op":"health"}|} in
      check Alcotest.bool "shed reply not ok" false r.Client.ok;
      check (Alcotest.option Alcotest.string) "code" (Some "overloaded")
        r.Client.code;
      (match r.Client.retry_after_s with
      | Some s -> check Alcotest.bool "positive retry hint" true (s > 0.0)
      | None -> Alcotest.fail "shed reply has no retry_after_s");
      Thread.join th;
      Fault.disarm ();
      (match !slow with
      | Some (Ok sr) -> check Alcotest.bool "slow request served" true sr.Client.ok
      | Some (Error e) -> Alcotest.fail ("slow request: " ^ e)
      | None -> Alcotest.fail "slow request never finished");
      (* capacity freed: the next request is admitted again. The client
         closes after reading its reply, but the worker keeps its
         in-flight slot until it reads that EOF, so wait (bounded) for the
         slot to free before asking again *)
      let in_flight = Mdh_obs.Metrics.gauge "serve.in_flight" in
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        Mdh_obs.Metrics.gauge_value in_flight > 0.0
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.01
      done;
      let h = expect_ok (rpc ~socket {|{"op":"health"}|}) in
      check Alcotest.string "recovered" "ok" (rstr h "status"))

(* --- fault containment --- *)

let test_handler_crash_is_contained () =
  with_server (fun ~socket _ ->
      (match Fault.configure "serve.handle:raise@1" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      let r = rpc ~socket {|{"op":"health"}|} in
      check Alcotest.bool "crashed request not ok" false r.Client.ok;
      check (Alcotest.option Alcotest.string) "structured internal error"
        (Some "internal") r.Client.code;
      Fault.disarm ();
      let h = expect_ok (rpc ~socket {|{"op":"health"}|}) in
      check Alcotest.string "daemon survived the crash" "ok"
        (rstr h "status"))

let test_read_fault_is_absorbed () =
  with_server (fun ~socket _ ->
      (match Fault.configure "serve.read:raise@1" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      (match Client.rpc ~timeout_s:5.0 ~socket {|{"op":"health"}|} with
      | Ok r -> Alcotest.fail ("expected a dropped connection, got ok=" ^ string_of_bool r.Client.ok)
      | Error _ -> ());
      Fault.disarm ();
      let h = expect_ok (rpc ~socket {|{"op":"health"}|}) in
      check Alcotest.string "daemon survived the read fault" "ok"
        (rstr h "status"))

let test_frame_guard () =
  with_server
    ~configure:(fun c -> { c with Server.max_frame = 256 })
    (fun ~socket _ ->
      let huge =
        J.obj [ ("op", J.quote "health"); ("pad", J.quote (String.make 1024 'x')) ]
      in
      let r = rpc ~socket huge in
      check (Alcotest.option Alcotest.string) "frame guard"
        (Some "frame_too_large") r.Client.code;
      let h = expect_ok (rpc ~socket {|{"op":"health"}|}) in
      check Alcotest.string "daemon survived the oversize frame" "ok"
        (rstr h "status"))

(* --- lifecycle --- *)

let test_drain_removes_socket_and_refuses_double_bind () =
  Mdh_atf.Tuning_db.set_ambient None;
  let socket = fresh_socket () in
  let t =
    match Server.create (Server.default_config ~socket) with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let thread = Thread.create Server.serve t in
  (* a live socket must not be stolen by a second daemon *)
  (match Server.create (Server.default_config ~socket) with
  | Ok _ -> Alcotest.fail "second daemon bound a live socket"
  | Error e ->
    check Alcotest.bool "names the conflict" true
      (String.length e > 0));
  ignore (rpc ~socket {|{"op":"health"}|});
  Server.request_shutdown t;
  Thread.join thread;
  check Alcotest.bool "socket removed on drain" false (Sys.file_exists socket);
  check Alcotest.bool "state dir removed when empty" false
    (Sys.file_exists (Server.state_dir t));
  check Alcotest.bool "served counted" true (Server.served t >= 1);
  (* ... and a fresh daemon can bind the same path again *)
  match Server.create (Server.default_config ~socket) with
  | Error e -> Alcotest.fail ("rebind after drain: " ^ e)
  | Ok t2 ->
    let th2 = Thread.create Server.serve t2 in
    Server.request_shutdown t2;
    Thread.join th2

let test_stale_socket_is_replaced () =
  Mdh_atf.Tuning_db.set_ambient None;
  let socket = fresh_socket () in
  (* fabricate a crashed daemon's leftover: a bound-then-abandoned socket *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.close fd;
  check Alcotest.bool "stale socket exists" true (Sys.file_exists socket);
  match Server.create (Server.default_config ~socket) with
  | Error e -> Alcotest.fail ("stale socket not replaced: " ^ e)
  | Ok t ->
    let th = Thread.create Server.serve t in
    let h = expect_ok (rpc ~socket {|{"op":"health"}|}) in
    check Alcotest.string "serving on the reclaimed path" "ok"
      (rstr h "status");
    Server.request_shutdown t;
    Thread.join th


(* --- the operation table: local ≡ remote by construction --- *)

(* run [req] in-process, then push the request and the result through
   their JSON codecs the way mdhc --remote and mdhd do: the decoded
   request must be the same record, and the decoded result must print
   byte-identically (stdout, stderr, status) *)
let round_trip ?(ctx = Op.local ()) ?(view = Op.plain) (op : (_, _) Op.t) req =
  let wire fields = Jin.parse (J.obj fields) in
  let ok what = function
    | Ok v -> v
    | Error (code, msg) -> Alcotest.failf "%s %s: %s: %s" op.Op.name what code msg
  in
  let res = ok "run" (op.Op.run ctx req) in
  let req' = ok "decode_request" (op.Op.decode_request (wire (op.Op.encode_request req))) in
  check Alcotest.bool (op.Op.name ^ ": request survives the wire") true (req = req');
  let res' = ok "decode_result" (op.Op.decode_result (wire (op.Op.encode_result res))) in
  let local = op.Op.print view req res and remote = op.Op.print view req' res' in
  check Alcotest.string (op.Op.name ^ ": stdout") local.Op.out remote.Op.out;
  check Alcotest.string (op.Op.name ^ ": stderr") local.Op.err remote.Op.err;
  check Alcotest.int (op.Op.name ^ ": status") local.Op.status remote.Op.status;
  res

let test_op_codecs_round_trip () =
  Mdh_atf.Tuning_db.set_ambient None;
  List.iter
    (fun workload ->
      let subject device = { Op.workload; device; input = "test" } in
      let tune =
        { Op.Tune.subject = subject "cpu"; budget = 24; seed = 3; chains = 2;
          strategy = Tuner.Anneal; no_rewrite = false; deadline_s = None;
          resume = false; token = None }
      in
      ignore (round_trip Op.Tune.op tune);
      ignore (round_trip Op.Tune.op { tune with subject = subject "gpu"; no_rewrite = true });
      (* a suspension prints its resume hint and exit status 3 on both sides *)
      let ckpt = Filename.temp_file "mdh-op" ".ckpt" in
      ignore
        (round_trip ~ctx:(Op.local ~checkpoint:ckpt ()) Op.Tune.op
           { tune with budget = 2000; deadline_s = Some 1e-7 });
      (try Sys.remove ckpt with Sys_error _ -> ());
      List.iter
        (fun view ->
          List.iter
            (fun device ->
              ignore (round_trip ~view Op.Plan_op.op { Op.Plan_op.subject = subject device; schedule = None });
              List.iter
                (fun no_rewrite ->
                  ignore (round_trip ~view Op.Optimize.op { Op.Optimize.subject = subject device; no_rewrite }))
                [ false; true ])
            [ "cpu"; "gpu" ];
          ignore (round_trip ~view Op.Check.op { Op.Check.workload = Some workload; source = None }))
        [ Op.plain; { Op.json = true; digest = true; strict = true } ];
      List.iter
        (fun (parallel, backend) ->
          ignore
            (round_trip Op.Exec_op.op
               { Op.Exec_op.subject = subject "cpu"; seed = 5; parallel; backend }))
        Op.Exec_op.[ (false, Auto); (true, Auto); (true, Interp) ])
    [ "matvec"; "prl"; "kmeans" ];
  (* the explicit schedule of mdhc plan --schedule travels too *)
  ignore
    (round_trip Op.Plan_op.op
       { Op.Plan_op.subject = { Op.workload = "matvec"; device = "cpu"; input = "test" };
         schedule = Some "tiles=7x9 parallel=[0] layers=[0]" })

(* check --file sends the pragma text: the diagnostics that come back,
   spans included, are exactly Analyze.pragma's on the same text *)
let test_check_source_over_the_wire () =
  let file =
    if Sys.file_exists "fixtures/hints.mdh" then "fixtures/hints.mdh"
    else "test/fixtures/hints.mdh"
  in
  let text = In_channel.with_open_text file In_channel.input_all in
  let req = { Op.Check.workload = None; source = Some { Op.Check.file; text; params = [] } } in
  let expected = Mdh_analysis.Analyze.pragma ~name:"hints" text in
  List.iter
    (fun view ->
      match round_trip ~view Op.Check.op req with
      | [ (uri, ds) ] ->
        check Alcotest.string "target is the file" file uri;
        check Alcotest.bool "diagnostics and spans match Analyze.pragma" true (ds = expected);
        check Alcotest.bool "spans present" true
          (List.exists (fun (d : Diag.t) -> d.Diag.span <> None) ds)
      | _ -> Alcotest.fail "one target expected")
    [ Op.plain; { Op.plain with json = true } ];
  (* and through a live daemon *)
  with_server (fun ~socket _ ->
      match
        Client.request ~socket ~op:"check" (Op.Check.op.Op.encode_request req)
      with
      | Ok { Client.ok = true; result = Some body; _ } -> (
        match Op.Check.op.Op.decode_result body with
        | Ok [ (_, ds) ] ->
          check Alcotest.bool "daemon diagnostics match" true (ds = expected)
        | _ -> Alcotest.fail "daemon check result did not decode")
      | _ -> Alcotest.fail "daemon check failed")

let suite =
  ( "serve",
    [ Alcotest.test_case "protocol: parse and envelopes" `Quick
        test_protocol_parse_and_envelope;
      Alcotest.test_case "protocol: numbers round-trip exactly" `Quick
        test_protocol_number_round_trip;
      Alcotest.test_case "basic ops over the socket" `Quick test_basic_ops;
      Alcotest.test_case "structured errors, connection survives" `Quick
        test_structured_errors;
      Alcotest.test_case "remote tune = local tune" `Quick
        test_tune_matches_local;
      Alcotest.test_case "deadline suspends, resume is bit-identical" `Quick
        test_deadline_suspends_and_resumes_bit_identical;
      Alcotest.test_case "server-wide deadline cap" `Quick
        test_max_deadline_cap_applies;
      Alcotest.test_case "load shedding with retry hint" `Quick
        test_load_shedding;
      Alcotest.test_case "handler crash is contained" `Quick
        test_handler_crash_is_contained;
      Alcotest.test_case "read fault is absorbed" `Quick
        test_read_fault_is_absorbed;
      Alcotest.test_case "frame guard" `Quick test_frame_guard;
      Alcotest.test_case "drain removes socket, rebind works" `Quick
        test_drain_removes_socket_and_refuses_double_bind;
      Alcotest.test_case "stale socket is replaced" `Quick
        test_stale_socket_is_replaced;
      Alcotest.test_case "op codecs: local print = remote print" `Quick
        test_op_codecs_round_trip;
      Alcotest.test_case "check source over the wire" `Quick
        test_check_source_over_the_wire ] )
