(** The diagnostics engine: stable error codes, severities, source spans,
    accumulation, and human / SARIF-shaped JSON renderers.

    Every finding of the static analyzer ({!Analyze}) and the operator
    property verifier ({!Opcheck}) is a [t]: a stable [MDH0xx] code, a
    severity, an optional source span (populated when the directive came
    from the [#pragma mdh] textual frontend, whose parser records clause
    positions), an optional subject (the buffer, loop variable or
    combine-operator the finding is about), and a message.

    Severity policy (see docs/DIAGNOSTICS.md):
    - [Error]: the directive is rejected — [Validate.run] fails, or a
      combine operator's declared algebraic property was falsified.
      Errors always fail [mdhc check].
    - [Warning]: the directive is accepted but something will bite later
      (an input buffer never read, a reduction dimension that no schedule
      may parallelise). Warnings fail [mdhc check --strict].
    - [Hint]: advisory only (locality/loop-interchange suggestions,
      verified-but-undeclared operator properties). Hints never fail.

    Emission increments the process-wide metrics counters
    [analysis.check.errors|warnings|hints] so [--metrics] covers analyzer
    runs. *)

type severity = Error | Warning | Hint

val severity_to_string : severity -> string
(** ["error"], ["warning"], ["hint"]. *)

type span = { line : int; col : int }
(** 1-based source position of the offending clause/token. *)

type t = {
  code : string;  (** stable, e.g. ["MDH002"] — see {!code_table} *)
  severity : severity;
  span : span option;
  subject : string option;
      (** what the finding is about: a buffer or loop-variable name, or
          ["combine_ops\[i\]"] for the i-th combine operator *)
  message : string;
}

val code_table : (string * severity * string) list
(** Every code the analyzer can emit, with its default severity and a
    one-line description. The table is append-only: codes are stable
    across releases (pinned by test_analysis). *)

val describe_code : string -> string option
(** Short description from {!code_table}. *)

(** {1 Accumulation} *)

type buffer

val create : unit -> buffer

val emit :
  buffer ->
  ?span:span ->
  ?subject:string ->
  severity ->
  string ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** [emit b sev code fmt ...] appends a diagnostic; emission order is
    preserved by {!contents}. Also bumps the per-severity metrics
    counter. *)

val contents : buffer -> t list
(** Diagnostics in emission order. *)

val error_count : t list -> int
val warning_count : t list -> int
val hint_count : t list -> int

val exit_code : ?strict:bool -> t list -> int
(** 1 when any error; with [~strict:true], also when any warning. Hints
    never affect the exit code. *)

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** [error[MDH002] at 3:7 (i): loop variable "i" bound twice] — the span
    and subject are included when present. *)

val to_string : t -> string

val render : ?file:string -> t list -> string
(** One line per diagnostic, [file:line:col: severity[CODE]: message]
    when both a file and a span are known (the standard compiler format
    editors understand). *)

val sarif : tool_version:string -> (string * t list) list -> string
(** SARIF-shaped JSON (version 2.1.0, one run): the association list maps
    artifact URIs — a pragma file path, or [workload:<name>] for
    catalogue directives — to their diagnostics. The tool's rules array
    is {!code_table}. *)
