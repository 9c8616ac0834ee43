(** mdhd — the fault-tolerant tuning-as-a-service daemon core.

    A long-running Unix-domain-socket server speaking the newline-
    delimited JSON protocol of {!Protocol}. The work ops are {!Op}'s
    table, run under {!Op.serving} and sharing one process-wide set of
    caches and one ambient {!Mdh_atf.Tuning_db}; this module adds
    transport, admission, deadlines, drain, [health] and [metrics]. The
    robustness contract (pinned by test_serve and the check.sh serve
    stage; docs/SERVING.md has the operator's view):

    - {b Admission control}: at most [workers + max_queue] connections;
      beyond that a structured [overloaded] reply with a [retry_after_s]
      hint, then close ([serve.shed]).
    - {b Deadlines}: [tune] deadlines are clamped to [max_deadline_s]; an
      expired annealing search suspends to a checkpoint under
      [state_dir] and replies [status="suspended"] with a resume token.
    - {b Stall and crash containment}: per-connection read/write
      timeouts and a [max_frame] guard; a raising handler (including
      [serve.handle] injected faults) costs one [internal] reply.
    - {b Graceful drain}: {!request_shutdown} stops accepting, lets
      in-flight work finish or suspend, flushes the ambient tuning
      database, removes the socket file, and {!serve} returns.

    Fault sites [serve.accept], [serve.read], [serve.write] and
    [serve.handle] thread the whole path through {!Mdh_fault.Fault}. *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  workers : int;  (** handler threads (default 4) *)
  max_queue : int;  (** admitted-but-unserved connections beyond the
                        busy workers; above it the accept loop sheds *)
  read_timeout_s : float;  (** per-connection idle read budget *)
  write_timeout_s : float;  (** per-reply write budget *)
  max_frame : int;  (** request line size cap, bytes *)
  max_deadline_s : float option;
      (** server-wide cap on per-request tune deadlines; [None] = only
          client-supplied deadlines apply *)
  state_dir : string option;
      (** checkpoint-token directory; default [socket ^ ".state"] *)
}

val default_config : socket:string -> config
(** workers 4, queue 16, 10 s read/write timeouts, 1 MiB frames, no
    deadline cap. *)

type t

val create : config -> (t, string) result
(** Bind and listen. A stale socket file left by a crashed daemon is
    detected (nothing accepts on it) and replaced; a live one is
    [Error "... already serving"]. Creates [state_dir]. *)

val serve : t -> unit
(** Run the accept loop and handler threads until {!request_shutdown},
    then drain as described above and return. Call from the thread that
    should own the daemon's lifetime (bin/mdhd calls it from [main]
    with signal handlers installed around it). *)

val request_shutdown : t -> unit
(** Begin graceful drain; safe to call from a signal handler or any
    thread (it only flips an atomic — all wake-ups happen in
    {!serve}). Idempotent. *)

val draining : t -> bool

val served : t -> int
(** Requests dispatched over the daemon's lifetime. *)

val state_dir : t -> string
