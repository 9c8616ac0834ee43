(* Wire protocol for mdhd: one JSON object per LF-terminated line, in
   both directions. Parsing goes through Mdh_support.Json_in (the repo's
   own artifact reader) and emission through Mdh_obs.Json, so the
   protocol adds no dependency beyond what the repo already ships. *)

module Jin = Mdh_support.Json_in
module J = Mdh_obs.Json

type request = {
  req_id : Jin.t option;
  req_op : string;
  req_body : Jin.t;
}

let parse_request line =
  match Jin.parse line with
  | exception Jin.Parse_error e -> Error ("malformed JSON: " ^ e)
  | Jin.Obj _ as body -> (
    match Jin.member "op" body with
    | Some (Jin.Str op) ->
      Ok { req_id = Jin.member "id" body; req_op = op; req_body = body }
    | Some _ -> Error "request \"op\" is not a string"
    | None -> Error "request has no \"op\" field")
  | _ -> Error "request is not a JSON object"

let int_field req name =
  Option.map (fun f -> int_of_float (Float.round f)) (Jin.get_float req.req_body name)

let bool_field req name = Jin.get_bool req.req_body name

(* exact number rendering: estimated costs must survive the
   server→client round trip bitwise, so replies use %.17g (with a
   compact integer form when exact) rather than Mdh_obs.Json's display
   precision *)
let number f =
  if not (Float.is_finite f) then "0" (* JSON cannot carry nan/inf *)
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec render = function
  | Jin.Null -> "null"
  | Jin.Bool b -> if b then "true" else "false"
  | Jin.Num f -> number f
  | Jin.Str s -> J.quote s
  | Jin.Arr xs -> J.arr (List.map render xs)
  | Jin.Obj kvs -> J.obj (List.map (fun (k, v) -> (k, render v)) kvs)

let id_field = function
  | Some { req_id = Some id; _ } -> render id
  | _ -> "null"

let ok_reply ?metrics request ~op fields =
  J.obj
    ([ ("id", id_field request); ("ok", "true"); ("op", J.quote op);
       ("result", J.obj fields) ]
    @ match metrics with None -> [] | Some m -> [ ("metrics", m) ])

let error_reply ?retry_after_s ?request ~code msg =
  J.obj
    ([ ("id", id_field request); ("ok", "false"); ("code", J.quote code);
       ("error", J.quote msg) ]
    @
    match retry_after_s with
    | None -> []
    | Some s -> [ ("retry_after_s", number s) ])
