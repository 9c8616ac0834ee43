(** Deterministic, seeded fault injection for the tuning runtime.

    The runtime threads named {e sites} through its failure-prone
    operations — worker job start, cost-model evaluation, tuning-store
    I/O — and this module decides, from an armed spec, whether each hit
    of a site misbehaves. Triggers fire on exact hit counts (optionally
    repeating), and payload corruption is seeded, so every chaos run is
    bit-for-bit reproducible.

    Disarmed (the default), {!hit} and {!mangle} cost one atomic load:
    the hooks stay in production code paths permanently, like
    [Mdh_obs]. Arm via [MDH_FAULTS] ({!arm_from_env}), [mdhc --inject],
    or {!configure}.

    Spec grammar (see also {!grammar}):
    {v
    SPEC   := CLAUSE (',' CLAUSE)*
    CLAUSE := SITE ':' ACTION ['@' N] ['/' EVERY]
    SITE   := pool.job | cost.eval | db.read | db.write | db.rename
            | serve.accept | serve.read | serve.write | serve.handle
    ACTION := raise | delay=MILLIS | truncate=N | corrupt=SEED
    v}
    e.g. [cost.eval:raise@40] raises on the 40th cost evaluation;
    [db.write:truncate=5] tears the first journal append after 5 bytes;
    [pool.job:delay=300/2] stalls every second worker job start 300 ms. *)

exception Injected of string
(** Raised by a [raise]-action trigger; the payload is the site name. *)

type action =
  | Raise
  | Delay of float  (** seconds *)
  | Truncate of int  (** keep at most N payload bytes *)
  | Corrupt of int  (** seed choosing which payload byte to flip, and how *)

type trigger = {
  site : string;
  action : action;
  at : int;  (** 1-based hit index of the first firing *)
  every : int option;  (** [None] = one-shot *)
  hits : int Atomic.t;
}

val sites : string list
(** The site names the runtime instruments. *)

val grammar : string
(** Human-readable spec grammar, for [--inject] help and error text. *)

val parse : string -> (trigger list, string) result

val arm : trigger list -> unit
val disarm : unit -> unit
val armed : unit -> bool

val configure : string -> (unit, string) result
(** Parse a spec and arm it. *)

val arm_from_env : unit -> (bool, string) result
(** Arm from [MDH_FAULTS] if set and non-empty; [Ok true] when armed,
    [Ok false] when the variable is absent, [Error] on a bad spec. *)

val hit : string -> unit
(** Control-action sites: may raise {!Injected} or sleep. Counted on
    the registry as [fault.injected] / [fault.injected.<site>]. *)

val mangle : string -> string -> string
(** Payload-action sites: returns the (possibly truncated or seeded-
    corrupted) payload a write should persist instead of the intent. *)
