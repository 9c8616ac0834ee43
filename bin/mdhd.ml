(* mdhd — the MDH tuning-as-a-service daemon.

   Serves the catalogue over a Unix-domain socket speaking
   newline-delimited JSON (docs/SERVING.md), sharing one process-wide
   plan/cost cache and tuning database across every client:

     mdhd --socket /tmp/mdh.sock
     mdhd --socket /tmp/mdh.sock --workers 8 --queue 32
     mdhd --socket /tmp/mdh.sock --max-deadline 30
     mdhd --socket /tmp/mdh.sock --inject 'serve.read:raise@3'

   Clients: any mdhc subcommand with --remote, or raw JSON lines:

     mdhc --remote /tmp/mdh.sock tune matmul ... (the mdhc man pages)
     printf '{"op":"health"}\n' | socat - UNIX-CONNECT:/tmp/mdh.sock

   SIGTERM/SIGINT drain gracefully: stop accepting, finish or suspend
   in-flight work (tunes checkpoint and can be resumed bit-identically),
   flush the tuning database, remove the socket, exit 0. *)

open Cmdliner
module Server = Mdh_serve.Server

let socket_arg =
  let doc = "Unix-domain socket path to serve on." in
  Arg.(required & opt (some string) None & info [ "socket"; "s" ] ~doc ~docv:"PATH")

let workers_arg =
  let doc = "Handler threads: at most this many requests execute at once." in
  Arg.(value & opt int 4 & info [ "workers" ] ~doc ~docv:"N")

let queue_arg =
  let doc =
    "Admission queue depth. Connections beyond the busy workers plus this \
     backlog are shed with a structured $(b,overloaded) reply carrying a \
     $(b,retry_after_s) hint — the daemon never queues unboundedly."
  in
  Arg.(value & opt int 16 & info [ "queue" ] ~doc ~docv:"N")

let read_timeout_arg =
  let doc = "Per-connection idle read budget, seconds." in
  Arg.(value & opt float 10.0 & info [ "read-timeout" ] ~doc ~docv:"SECS")

let write_timeout_arg =
  let doc = "Per-reply write budget, seconds." in
  Arg.(value & opt float 10.0 & info [ "write-timeout" ] ~doc ~docv:"SECS")

let max_frame_arg =
  let doc = "Request line size cap, bytes; larger frames are refused." in
  Arg.(value & opt int (1 lsl 20) & info [ "max-frame" ] ~doc ~docv:"BYTES")

let max_deadline_arg =
  let doc =
    "Server-wide cap (seconds) on tune deadlines: requests asking for more \
     — or for none — get this much, then suspend to a resumable \
     checkpoint. Keeps one client from monopolising a worker."
  in
  Arg.(value & opt (some float) None & info [ "max-deadline" ] ~doc ~docv:"SECS")

let state_dir_arg =
  let doc = "Checkpoint directory for suspended tunes (default: SOCKET.state)." in
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~doc ~docv:"DIR")

let tuning_db_arg =
  let doc =
    "Path of the persistent tuning database shared by every client \
     (default: $(b,\\$MDH_TUNING_DB) or $(b,~/.cache/mdh/tuning.db))."
  in
  Arg.(value & opt (some string) None & info [ "tuning-db" ] ~doc ~docv:"PATH")

let no_cache_arg =
  let doc =
    "Disable the tuning database and every in-memory cache (cost model, plans, \
     compiled plans, operator verification)."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let inject_arg =
  let doc =
    "Arm deterministic fault injection (overrides $(b,\\$MDH_FAULTS)). "
    ^ Mdh_fault.Fault.grammar
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~doc ~docv:"SPEC")

let die msg =
  prerr_endline ("mdhd: " ^ msg);
  exit 1

let run socket workers queue read_timeout_s write_timeout_s max_frame
    max_deadline_s state_dir tuning_db no_cache inject =
  Option.iter
    (fun spec -> Result.iter_error (fun msg -> die ("--inject: " ^ msg)) (Mdh_fault.Fault.configure spec))
    inject;
  Mdh_serve.Op.setup_cache ~no_cache ~tuning_db;
  if workers < 1 then die "--workers must be at least 1";
  if queue < 0 then die "--queue must not be negative";
  let config =
    { Server.socket; workers; max_queue = queue; read_timeout_s;
      write_timeout_s; max_frame; max_deadline_s; state_dir }
  in
  match Server.create config with
  | Error msg -> die msg
  | Ok t ->
    (* signal handlers only flip the drain atomic — every wake-up and
       join happens inside Server.serve, which then returns for a clean
       exit 0 *)
    let stop _ = Server.request_shutdown t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Printf.eprintf "mdhd: serving on %s (%d worker(s), queue %d)\n%!" socket
      workers queue;
    Server.serve t;
    Printf.eprintf "mdhd: drained after %d request(s)\n%!" (Server.served t)

let () =
  (match Mdh_fault.Fault.arm_from_env () with
  | Ok _ -> ()
  | Error msg -> die ("MDH_FAULTS: " ^ msg));
  let doc = "MDH tuning-as-a-service daemon (see docs/SERVING.md)" in
  let info = Cmd.info "mdhd" ~version:Mdh_serve.Op.version ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ socket_arg $ workers_arg $ queue_arg
            $ read_timeout_arg $ write_timeout_arg $ max_frame_arg
            $ max_deadline_arg $ state_dir_arg $ tuning_db_arg $ no_cache_arg
            $ inject_arg)))
