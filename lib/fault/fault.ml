(* Deterministic fault injection for the tuning/execution runtime.

   Faults are armed from a textual spec (MDH_FAULTS, or `mdhc --inject`)
   and fire at named sites threaded through the runtime. Every trigger
   is a pure function of its per-trigger hit counter (plus a seed for
   corruption byte choice), so a chaos run is exactly reproducible.

   When disarmed — the default — every entry point is a single atomic
   load, mirroring the Mdh_obs contract: instrumentation stays in the
   hot path permanently at zero cost. *)

exception Injected of string

type action =
  | Raise
  | Delay of float
  | Truncate of int
  | Corrupt of int (* seed for the deterministic byte flip *)

type trigger = {
  site : string;
  action : action;
  at : int; (* 1-based hit index of the first firing *)
  every : int option; (* None = one-shot; Some k = re-fire every k hits *)
  hits : int Atomic.t;
}

let sites =
  [ "pool.job"; "cost.eval"; "db.read"; "db.write"; "db.rename"; "serve.accept";
    "serve.read"; "serve.write"; "serve.handle" ]

let armed_flag = Atomic.make false
let triggers : trigger list ref = ref []
let mutex = Mutex.create ()

let m_injected = Mdh_obs.Metrics.counter "fault.injected"

let m_site site =
  (* per-site registration is idempotent, so looking the counter up on
     the (rare) injection path is fine *)
  Mdh_obs.Metrics.counter ("fault.injected." ^ site)

let grammar =
  "SPEC     := CLAUSE (',' CLAUSE)*\n\
   CLAUSE   := SITE ':' ACTION ['@' N] ['/' EVERY]\n\
   SITE     := pool.job | cost.eval | db.read | db.write | db.rename\n\
  \          | serve.accept | serve.read | serve.write | serve.handle\n\
   ACTION   := raise              (raise Mdh_fault.Fault.Injected)\n\
  \          | delay=MILLIS       (sleep before proceeding)\n\
  \          | truncate=N         (keep only N bytes of the payload)\n\
  \          | corrupt=SEED       (flip one seeded byte of the payload)\n\
   '@ N'    fires on the N-th hit of the site (default 1);\n\
   '/EVERY' re-fires every EVERY hits after that (default: one-shot)."

let parse_action s =
  match String.index_opt s '=' with
  | None -> if s = "raise" then Ok Raise else Error ("unknown action " ^ s)
  | Some i -> (
    let name = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match (name, int_of_string_opt arg) with
    | "delay", Some ms when ms >= 0 -> Ok (Delay (float_of_int ms /. 1e3))
    | "truncate", Some n when n >= 0 -> Ok (Truncate n)
    | "corrupt", Some seed -> Ok (Corrupt seed)
    | ("delay" | "truncate" | "corrupt"), _ ->
      Error (Printf.sprintf "bad argument in %S" s)
    | _ -> Error ("unknown action " ^ name))

let parse_clause clause =
  let clause = String.trim clause in
  match String.split_on_char ':' clause with
  | [ site; rest ] -> (
    if not (List.mem site sites) then
      Error
        (Printf.sprintf "unknown site %S (known: %s)" site
           (String.concat ", " sites))
    else
      let rest, every =
        match String.index_opt rest '/' with
        | None -> (rest, Ok None)
        | Some i ->
          ( String.sub rest 0 i,
            match
              int_of_string_opt
                (String.sub rest (i + 1) (String.length rest - i - 1))
            with
            | Some k when k >= 1 -> Ok (Some k)
            | _ -> Error (Printf.sprintf "bad repeat count in %S" clause) )
      in
      let rest, at =
        match String.index_opt rest '@' with
        | None -> (rest, Ok 1)
        | Some i -> (
          ( String.sub rest 0 i,
            match
              int_of_string_opt
                (String.sub rest (i + 1) (String.length rest - i - 1))
            with
            | Some n when n >= 1 -> Ok n
            | _ -> Error (Printf.sprintf "bad hit index in %S" clause) ))
      in
      match (parse_action rest, at, every) with
      | Ok action, Ok at, Ok every ->
        Ok { site; action; at; every; hits = Atomic.make 0 }
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e)
  | _ -> Error (Printf.sprintf "clause %S is not SITE:ACTION" clause)

let parse spec =
  let clauses =
    List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' spec)
  in
  if clauses = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc clause ->
        match (acc, parse_clause clause) with
        | Error _, _ -> acc
        | _, Error e -> Error e
        | Ok ts, Ok t -> Ok (ts @ [ t ]))
      (Ok []) clauses

let arm ts =
  Mutex.lock mutex;
  triggers := ts;
  Atomic.set armed_flag (ts <> []);
  Mutex.unlock mutex

let disarm () = arm []
let armed () = Atomic.get armed_flag

let configure spec = Result.map arm (parse spec)

let arm_from_env () =
  match Sys.getenv_opt "MDH_FAULTS" with
  | None | Some "" -> Ok false
  | Some spec -> Result.map (fun () -> true) (configure spec)

(* a trigger fires on hit [at], then every [every] hits after it *)
let fires t n =
  n = t.at
  || (match t.every with
     | Some k -> n > t.at && (n - t.at) mod k = 0
     | None -> false)

let record_injection site =
  Mdh_obs.Metrics.incr m_injected;
  Mdh_obs.Metrics.incr (m_site site)

(* deterministic byte corruption: splitmix-style mix of the seed picks
   the offset and the xor mask, so a given spec always tears the same
   byte the same way *)
let corrupt_payload seed payload =
  if String.length payload = 0 then payload
  else begin
    let z = Int64.add (Int64.of_int seed) 0x9E3779B97F4A7C15L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let mixed = Int64.to_int (Int64.shift_right_logical z 8) in
    let off = abs mixed mod String.length payload in
    let mask = 1 + (abs (mixed lsr 16) mod 255) in
    let b = Bytes.of_string payload in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor mask));
    Bytes.to_string b
  end

(* [hit] drives the control actions (raise, delay) and [mangle] the
   payload actions (truncate, corrupt); each trigger's hit counter is
   touched by exactly one of the two, so a site that calls both — e.g.
   db.write — never double-counts a trigger *)
let slow_hit site =
  List.iter
    (fun t ->
      match t.action with
      | (Raise | Delay _) when t.site = site ->
        let n = 1 + Atomic.fetch_and_add t.hits 1 in
        if fires t n then begin
          record_injection site;
          match t.action with
          | Raise -> raise (Injected site)
          | Delay s -> Unix.sleepf s
          | Truncate _ | Corrupt _ -> assert false
        end
      | _ -> ())
    !triggers

let hit site = if Atomic.get armed_flag then slow_hit site

let slow_mangle site payload =
  List.fold_left
    (fun payload t ->
      match t.action with
      | (Truncate _ | Corrupt _) when t.site = site ->
        let n = 1 + Atomic.fetch_and_add t.hits 1 in
        if not (fires t n) then payload
        else begin
          record_injection site;
          match t.action with
          | Truncate keep -> String.sub payload 0 (min keep (String.length payload))
          | Corrupt seed -> corrupt_payload seed payload
          | Raise | Delay _ -> assert false
        end
      | _ -> payload)
    payload !triggers

let mangle site payload =
  if Atomic.get armed_flag then slow_mangle site payload else payload
