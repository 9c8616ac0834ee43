(* mdhd core: transport, admission, deadlines and drain around Op's work
   ops, plus metrics/health, over a Unix socket (contract in server.mli).

   Threading model: the caller of [serve] runs the accept loop (select
   with a short tick so drain requests and signals are noticed);
   [workers] systhreads pull admitted connections from a bounded queue
   and run the handlers. Handlers hold no global locks — the shared
   state they touch (the Memo caches, Tuning_db, the metrics registry)
   is safe for concurrent domains, and the Tuning_db compaction race for
   in-process writers is closed by its own io mutex (see tuning_db.ml). *)

module Fault = Mdh_fault.Fault
module Metrics = Mdh_obs.Metrics
module J = Mdh_obs.Json
module P = Protocol

type config = {
  socket : string;
  workers : int;
  max_queue : int;
  read_timeout_s : float;
  write_timeout_s : float;
  max_frame : int;
  max_deadline_s : float option;
  state_dir : string option;
}

let default_config ~socket =
  { socket; workers = 4; max_queue = 16; read_timeout_s = 10.0;
    write_timeout_s = 10.0; max_frame = 1 lsl 20; max_deadline_s = None;
    state_dir = None }

(* --- serve.* observability --- *)
let m_accepted = Metrics.counter "serve.accepted"
let m_shed = Metrics.counter "serve.shed"
let m_timed_out = Metrics.counter "serve.timed_out"
let m_requests = Metrics.counter "serve.requests"
let m_errors = Metrics.counter "serve.errors"
let m_faults_absorbed = Metrics.counter "serve.faults_absorbed"
let m_suspended = Metrics.counter "serve.suspended"
let g_in_flight = Metrics.gauge "serve.in_flight"
let g_queue_depth = Metrics.gauge "serve.queue_depth"
let h_request_s = Metrics.histogram "serve.request_s"

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  st_dir : string;
  queue : Unix.file_descr Queue.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  in_flight : int Atomic.t;
  n_served : int Atomic.t;
  drain_flag : bool Atomic.t;
  started : float;
  mutable threads : Thread.t list;
}

let draining t = Atomic.get t.drain_flag
let request_shutdown t = Atomic.set t.drain_flag true
let served t = Atomic.get t.n_served
let state_dir t = t.st_dir

let with_mutex m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let queue_depth t = with_mutex t.qmutex (fun () -> Queue.length t.queue)

let health_handler t =
  Ok
    [ ("status", J.quote (if draining t then "draining" else "ok"));
      ("uptime_s", P.number (Unix.gettimeofday () -. t.started));
      ("in_flight", string_of_int (Atomic.get t.in_flight));
      ("queue_depth", string_of_int (queue_depth t));
      ("workers", string_of_int t.config.workers);
      ("max_queue", string_of_int t.config.max_queue);
      ("served", string_of_int (served t));
      ("pid", string_of_int (Unix.getpid ())) ]

(* the work ops are Op's table (decode → run → encode); the daemon adds
   only its own state: health, the registry, and the serving context *)
let dispatch t req =
  Atomic.incr t.n_served;
  Metrics.incr m_requests;
  let result =
    match req.P.req_op with
    | "health" -> health_handler t
    | "metrics" -> Ok [ ("registry", Metrics.to_json ()) ]
    | op -> (
      let ctx =
        Op.serving ~state_dir:t.st_dir ~max_deadline_s:t.config.max_deadline_s
          ~should_stop:(fun () -> draining t)
      in
      match Op.handle ctx op req.P.req_body with
      | Some result -> result
      | None -> Error ("unknown_op", Printf.sprintf "unknown op %S" op))
  in
  let metrics =
    if P.bool_field req "metrics" = Some true then Some (Metrics.to_json ()) else None
  in
  match result with
  | Ok fields ->
    if List.assoc_opt "status" fields = Some (J.quote "suspended") then
      Metrics.incr m_suspended;
    P.ok_reply ?metrics (Some req) ~op:req.P.req_op fields
  | Error (code, msg) ->
    Metrics.incr m_errors;
    P.error_reply ~request:req ~code msg

(* --- connection I/O --- *)

(* bounded, drain-aware line reader: select in short ticks so a drain
   request interrupts an idle keep-alive connection instead of waiting
   out the full read timeout *)
type read_outcome =
  [ `Line of string | `Eof | `Timeout | `Too_long | `Read_fault | `Drain ]

let take_line leftover =
  let s = Buffer.contents leftover in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    Buffer.clear leftover;
    Buffer.add_string leftover (String.sub s (i + 1) (String.length s - i - 1));
    Some (String.trim (String.sub s 0 i))

let recv_line t fd leftover : read_outcome =
  let chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. t.config.read_timeout_s in
  let rec go () =
    match take_line leftover with
    | Some line ->
      (* a complete line can still be oversized: the cap is on the frame,
         not just on unterminated garbage *)
      if String.length line > t.config.max_frame then `Too_long
      else `Line line
    | None ->
      if Buffer.length leftover > t.config.max_frame then `Too_long
      else if draining t then `Drain
      else begin
        let remain = deadline -. Unix.gettimeofday () in
        if remain <= 0.0 then `Timeout
        else begin
          match Unix.select [ fd ] [] [] (Float.min 0.25 remain) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | [], _, _ -> go ()
          | _ -> (
            match
              Fault.hit "serve.read";
              Unix.read fd chunk 0 (Bytes.length chunk)
            with
            | 0 -> if Buffer.length leftover = 0 then `Eof else `Timeout
            | n ->
              Buffer.add_subbytes leftover chunk 0 n;
              go ()
            | exception Fault.Injected _ ->
              Metrics.incr m_faults_absorbed;
              `Read_fault
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              go ()
            | exception Unix.Unix_error _ -> `Eof)
        end
      end
  in
  go ()

let send_line t fd line =
  let data = line ^ "\n" in
  let len = String.length data in
  try
    Fault.hit "serve.write";
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.write_timeout_s;
    let rec w off =
      if off < len then w (off + Unix.write_substring fd data off (len - off))
    in
    w 0;
    true
  with
  | Fault.Injected _ ->
    Metrics.incr m_faults_absorbed;
    false
  | Unix.Unix_error _ | Sys_error _ ->
    Metrics.incr m_errors;
    false

let handle_conn t fd =
  Atomic.incr t.in_flight;
  Metrics.set g_in_flight (float_of_int (Atomic.get t.in_flight));
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr t.in_flight;
      Metrics.set g_in_flight (float_of_int (Atomic.get t.in_flight));
      try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let leftover = Buffer.create 512 in
  let rec go () =
    match recv_line t fd leftover with
    | `Eof | `Drain | `Read_fault -> ()
    | `Timeout -> Metrics.incr m_timed_out
    | `Too_long ->
      (* the guard replies once, then drops the connection: the rest of
         the oversized frame is never buffered *)
      ignore
        (send_line t fd
           (P.error_reply ~code:"frame_too_large"
              (Printf.sprintf "request exceeds %d bytes" t.config.max_frame)))
    | `Line "" -> go ()
    | `Line line ->
      let reply =
        match P.parse_request line with
        | Error e -> P.error_reply ~code:"bad_request" e
        | Ok req -> (
          let t0 = Unix.gettimeofday () in
          let reply =
            (* crash containment: anything a handler raises — injected
               serve.handle faults included — becomes one structured
               error reply; the daemon and the connection survive *)
            match
              Fault.hit "serve.handle";
              dispatch t req
            with
            | reply -> reply
            | exception Fault.Injected site ->
              Metrics.incr m_faults_absorbed;
              P.error_reply ~request:req ~code:"internal"
                ("injected fault at " ^ site)
            | exception e ->
              Metrics.incr m_errors;
              P.error_reply ~request:req ~code:"internal"
                (Printexc.to_string e)
          in
          Metrics.observe h_request_s (Unix.gettimeofday () -. t0);
          reply)
      in
      if send_line t fd reply && not (draining t) then go ()
  in
  go ()

(* --- admission and lifecycle --- *)

let shed t fd =
  Metrics.incr m_shed;
  (* back-off hint proportional to the backlog the shed client would
     have joined *)
  let retry_after_s =
    0.05 *. float_of_int (1 + queue_depth t + Atomic.get t.in_flight)
  in
  ignore
    (send_line t fd
       (P.error_reply ~retry_after_s ~code:"overloaded"
          "admission queue full"));
  try Unix.close fd with Unix.Unix_error _ -> ()

let enqueue t fd =
  with_mutex t.qmutex (fun () ->
      Queue.push fd t.queue;
      Metrics.set g_queue_depth (float_of_int (Queue.length t.queue));
      Condition.signal t.qcond)

let next_conn t =
  with_mutex t.qmutex (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.queue) then begin
          let fd = Queue.pop t.queue in
          Metrics.set g_queue_depth (float_of_int (Queue.length t.queue));
          Some fd
        end
        else if draining t then None
        else begin
          Condition.wait t.qcond t.qmutex;
          wait ()
        end
      in
      wait ())

let rec worker t =
  match next_conn t with
  | None -> () (* draining and nothing left to serve *)
  | Some fd ->
    handle_conn t fd;
    worker t

let accept_one t =
  match
    Fault.hit "serve.accept";
    Unix.accept t.listen_fd
  with
  | exception Fault.Injected _ -> Metrics.incr m_faults_absorbed
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> Metrics.incr m_errors
  | fd, _ ->
    Metrics.incr m_accepted;
    (* load-shedding admission: capacity is busy workers + the bounded
       queue; one past it gets a structured refusal, never a silent
       unbounded backlog *)
    if queue_depth t + Atomic.get t.in_flight
       >= t.config.workers + t.config.max_queue
    then shed t fd
    else enqueue t fd

let create config =
  (* a write to a dead peer must be a unix error on the write, not a
     process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let st_dir =
    match config.state_dir with
    | Some d -> d
    | None -> config.socket ^ ".state"
  in
  mkdir_p st_dir;
  mkdir_p (Filename.dirname config.socket);
  let stale_socket path =
    (* a socket file nothing accepts on is a crashed daemon's leftovers *)
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close probe with _ -> ())
    @@ fun () ->
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () -> false
    | exception Unix.Unix_error _ -> true
  in
  if Sys.file_exists config.socket then begin
    if stale_socket config.socket then
      (try Sys.remove config.socket with Sys_error _ -> ())
  end;
  if Sys.file_exists config.socket then
    Error (Printf.sprintf "%s: a daemon is already serving" config.socket)
  else
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind listen_fd (Unix.ADDR_UNIX config.socket);
      Unix.listen listen_fd 64
    with
    | () ->
      Ok
        { config; listen_fd; st_dir; queue = Queue.create ();
          qmutex = Mutex.create (); qcond = Condition.create ();
          in_flight = Atomic.make 0; n_served = Atomic.make 0;
          drain_flag = Atomic.make false;
          started = Unix.gettimeofday (); threads = [] }
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close listen_fd with _ -> ());
      Error
        (Printf.sprintf "%s: cannot bind (%s)" config.socket
           (Unix.error_message err))

let serve t =
  t.threads <- List.init t.config.workers (fun _ -> Thread.create worker t);
  let rec loop () =
    if not (draining t) then begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> accept_one t);
      loop ()
    end
  in
  loop ();
  (* drain: no new admissions (loop exited); wake idle workers so they
     serve the already-admitted queue and exit; in-flight tunes see the
     drain flag through their should_stop and suspend to checkpoints *)
  with_mutex t.qmutex (fun () -> Condition.broadcast t.qcond);
  List.iter Thread.join t.threads;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove t.config.socket with Sys_error _ -> ());
  (* flush shared state: superseded journal appends are compacted away
     while we still can; ambient db is how bin/mdhd wires the cache *)
  (match Mdh_atf.Tuning_db.ambient () with
  | Some db -> Mdh_atf.Tuning_db.compact db
  | None -> ());
  (* leave no empty state dir behind — checkpoints of suspended tunes
     stay (they are the resume contract), an unused dir does not *)
  match Sys.readdir t.st_dir with
  | [||] -> ( try Unix.rmdir t.st_dir with Unix.Unix_error _ -> ())
  | _ | (exception Sys_error _) -> ()
