(** The mdhd wire protocol: newline-delimited JSON over a Unix-domain
    socket.

    Every request and every reply is exactly one JSON object on one
    line (LF-terminated). Requests carry an ["op"] selecting the
    handler plus op-specific fields; replies are an envelope:

    {v
    {"id":<echoed>,"ok":true,"op":"tune","result":{...}}
    {"id":<echoed>,"ok":false,"code":"overloaded","error":"...","retry_after_s":0.1}
    v}

    [id] is whatever the client sent (string, number, or null when
    absent) — echoed verbatim so clients can correlate replies. When a
    request sets ["metrics": true], the success envelope additionally
    carries a ["metrics"] object: the server's whole
    {!Mdh_obs.Metrics} registry as one-line JSON, which remote clients
    write to their [--metrics-out] file. Parsing reuses
    {!Mdh_support.Json_in}; emission reuses {!Mdh_obs.Json}. *)

type request = {
  req_id : Mdh_support.Json_in.t option;  (** echoed verbatim in replies *)
  req_op : string;
  req_body : Mdh_support.Json_in.t;  (** the whole request object *)
}

val parse_request : string -> (request, string) result
(** One line → request. [Error] on malformed JSON, a non-object, or a
    missing/non-string ["op"]. *)

(** {1 Request field accessors} (absent and wrongly-typed are both [None];
    the work ops decode their own fields, see {!Op}) *)

val int_field : request -> string -> int option
val bool_field : request -> string -> bool option

(** {1 Reply envelopes} — fields are (name, already-rendered JSON value) *)

val ok_reply :
  ?metrics:string -> request option -> op:string ->
  (string * string) list -> string
(** Success envelope around a [result] object. [metrics] is an
    already-rendered JSON object (the registry dump). *)

val error_reply :
  ?retry_after_s:float -> ?request:request -> code:string -> string -> string
(** Failure envelope: [code] is a stable machine identifier
    ([overloaded], [bad_request], [frame_too_large], [unknown_op],
    [internal], ...) and the payload a human message. [retry_after_s]
    carries the shedding back-off hint. *)

val render : Mdh_support.Json_in.t -> string
(** Render a parsed value back to JSON text (used to echo [id]s and to
    extract the [metrics] object on the client side). *)

val number : float -> string
(** Round-trip-exact JSON number rendering ([%.17g], integers without a
    fraction) — unlike {!Mdh_obs.Json.number}, which favours brevity. *)
