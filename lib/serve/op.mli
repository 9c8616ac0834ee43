(** The operation table: [tune], [plan], [check], [optimize] and [exec],
    each defined once as a typed request, a typed result, a JSON codec
    for both, one {!field-run} and one text printer.

    [mdhc] runs an op in-process; [mdhc --remote] sends the same request
    record through {!Client} and decodes the typed result; mdhd's
    dispatch is {!handle} (decode → run → encode). All three print
    through {!field-print}, so local and remote output agree by
    construction. Anything that changes a result is a request field;
    process configuration is a {!ctx} and never goes on the wire. *)

val version : string
(** The release shared by mdhc, mdhd and the SARIF [tool_version]. *)

val setup_cache : no_cache:bool -> tuning_db:string option -> unit
(** Process-wide cache configuration for mdhc, mdhd and the bench driver:
    [no_cache] turns off every in-memory table
    ({!Mdh_support.Memo.set_caching}) and the tuning database; otherwise
    the ambient database is [tuning_db], else [$MDH_TUNING_DB] or the
    user cache dir, else in memory. *)

type error = string * string
(** A stable machine code ([bad_request], [tune_failed], [plan_failed],
    [optimize_failed], [exec_failed], [exec_mismatch]; [bad_reply] for a
    result that does not decode) and a human message. *)

type ctx
(** Process configuration an op runs under. *)

val local :
  ?parallel:bool -> ?checkpoint:string -> ?checkpoint_every:int -> unit -> ctx
(** mdhc in-process: exec runs on a default {!Mdh_runtime.Pool}; tune
    searches on one when [parallel]; suspended tunes checkpoint to
    [checkpoint] (default: derived by the tuner) every [checkpoint_every]
    (default 64) evaluations per chain. *)

val serving :
  state_dir:string -> max_deadline_s:float option -> should_stop:(unit -> bool) -> ctx
(** mdhd: exec runs on a per-request zero-domain pool; tune checkpoints
    live in [state_dir] under a token derived from the request, deadlines
    are capped by [max_deadline_s], and [should_stop] (the drain flag)
    suspends in-flight searches. *)

type view = { json : bool; digest : bool; strict : bool }
(** Presentation only: [check --json/--strict], [optimize --json],
    [plan --digest]. *)

val plain : view

type printed = { out : string; err : string; status : int }
(** What a front end writes to stdout and stderr, and its exit status. *)

type ('req, 'res) t = {
  name : string;  (** the wire [op] *)
  encode_request : 'req -> (string * string) list;
  decode_request : Mdh_support.Json_in.t -> ('req, error) result;
  run : ctx -> 'req -> ('res, error) result;
  encode_result : 'res -> (string * string) list;
  decode_result : Mdh_support.Json_in.t -> ('res, error) result;
  print : view -> 'req -> 'res -> printed;
}

(** {1 Argument decoding} shared with mdhc's local-only commands *)

val find_workload : string -> (Mdh_workloads.Workload.t, string) result
val device_of : string -> (Mdh_machine.Device.t, string) result

val params_of :
  Mdh_workloads.Workload.t -> string -> (Mdh_workloads.Workload.params, string) result

type subject = { workload : string; device : string; input : string }
(** Catalogue name, [cpu|gpu], and an input set ([test] or a paper
    input); on the wire [device] defaults to [cpu] and [input] to
    [test]. *)

(** {1 The ops} *)

module Tune : sig
  type req = {
    subject : subject; budget : int; seed : int; chains : int;
    strategy : Mdh_atf.Tuner.strategy; no_rewrite : bool;
    deadline_s : float option; resume : bool;
    token : string option;  (** explicit resume token (wire only) *)
  }

  type res
  (** A tuned schedule with its search trace and wall time, or a
      suspension (printed as exit status 3 with a resume hint). *)

  val strategies : (string * Mdh_atf.Tuner.strategy) list
  val op : (req, res) t
end

module Plan_op : sig
  type req = { subject : subject; schedule : string option }

  type res
  (** The plan's digest, parallelism and pretty-printed IR. *)

  val op : (req, res) t
end

module Check : sig
  type source = { file : string; text : string; params : (string * int) list }

  type req = { workload : string option; source : source option }
  (** [source] (a pragma text and its display name) wins over [workload];
      neither means the whole catalogue. *)

  type res = (string * Mdh_analysis.Diagnostic.t list) list
  (** Diagnostics per target URI, in order. *)

  val op : (req, res) t
end

module Optimize : sig
  type req = { subject : subject; no_rewrite : bool }
  type res
  (** The {!Mdh_rewrite.Rewrite.summary} of the optimize report. *)

  val op : (req, res) t
end

module Exec_op : sig
  type backend = Auto | Interp | Special | Cc
  (** [Cc] runs gcc, which the daemon refuses to do for a client. *)

  val backends : (string * backend) list

  type req = { subject : subject; seed : int; parallel : bool; backend : backend }

  type res
  (** Wall time and whether the workload's oracle agreed ([rel 1e-3],
      [abs 1e-4]); a disagreement is the [exec_mismatch] error. *)

  val op : (req, res) t
end

val handle :
  ctx -> string -> Mdh_support.Json_in.t ->
  ((string * string) list, error) result option
(** [handle ctx op body] decodes, runs and encodes the named work op;
    [None] when [op] is not one. *)
