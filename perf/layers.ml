(* Bench-side tracing. Every call the benchmark makes into a layer's
   public function runs inside [span], whose trace category is the layer;
   spans of one iteration or request share an "id" arg. The library's own
   spans (exec.run, tuner.search, plan.build, ...) nest inside them.

   A layer's self time is a span's duration minus the time its direct
   children cover. Only the benchmark's own domain is attributed: spans
   that pool workers emit run in parallel with the caller's and would
   count wall time twice. Events are drained into a [table] at iteration
   boundaries so a long traced window keeps a bounded buffer; the first
   [keep_limit] events of each table are kept for the Chrome trace. *)

module Trace = Mdh_obs.Trace
module J = Mdh_obs.Json

let names =
  [ "directive"; "analysis"; "rewrite"; "lowering"; "atf"; "runtime"; "serve";
    "obs" ]

let span layer ~id name f = Trace.with_span ~cat:layer ~args:[ ("id", id) ] name f

type table = {
  self_ns : (string, int64) Hashtbl.t;  (* by layer *)
  mutable ops : int;  (* operations whose spans were drained *)
  mutable kept : Trace.event list;  (* newest first *)
  mutable n_kept : int;
}

let keep_limit = 5_000
let create () = { self_ns = Hashtbl.create 8; ops = 0; kept = []; n_kept = 0 }

let add_self t cat ns =
  let cat = if List.mem cat names then cat else "other" in
  let prev = Option.value ~default:0L (Hashtbl.find_opt t.self_ns cat) in
  Hashtbl.replace t.self_ns cat (Int64.add prev ns)

type open_span = {
  o_cat : string;
  o_id : string option;
  o_stop : int64;
  o_dur : int64;
  mutable o_children : int64;
}

(* events arrive sorted by (start, longest first), so a stack of open
   spans finds each span's innermost enclosing parent; spans of different
   requests (different ids, concurrent client threads) never nest *)
let attribute t ~tid events =
  let stack = ref [] in
  let close o = add_self t o.o_cat (Int64.sub o.o_dur o.o_children) in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.ev_ph with
      | Trace.Complete dur when ev.Trace.ev_tid = tid ->
        let start = ev.Trace.ev_ts_ns in
        let stop = Int64.add start dur in
        let rec pop () =
          match !stack with
          | o :: rest when o.o_stop <= start ->
            close o;
            stack := rest;
            pop ()
          | _ -> ()
        in
        pop ();
        let id = List.assoc_opt "id" ev.Trace.ev_args in
        (match !stack with
        | parent :: _
          when stop <= parent.o_stop
               && (id = None || parent.o_id = None || id = parent.o_id) ->
          parent.o_children <- Int64.add parent.o_children dur
        | _ -> ());
        stack :=
          { o_cat = ev.Trace.ev_cat; o_id = id; o_stop = stop; o_dur = dur;
            o_children = 0L }
          :: !stack
      | _ -> ())
    events;
  List.iter close !stack

let main_tid = (Domain.self () :> int)

(* Move every buffered event, the spans of [ops] operations, into [t].
   Call only while no other thread or domain is emitting, or their events
   may be lost between the snapshot and the clear. *)
let drain t ~ops =
  t.ops <- t.ops + ops;
  let events = Trace.events () in
  Trace.clear ();
  attribute t ~tid:main_tid events;
  List.iter
    (fun ev ->
      if t.n_kept < keep_limit then begin
        t.kept <- ev :: t.kept;
        t.n_kept <- t.n_kept + 1
      end)
    events

let self_s t layer =
  Mdh_obs.Clock.ns_to_s
    (Option.value ~default:0L (Hashtbl.find_opt t.self_ns layer))

let total_s t = Hashtbl.fold (fun l _ acc -> acc +. self_s t l) t.self_ns 0.0

(* each layer's share of the attributed time; 0 for a layer not on the
   path *)
let fractions t =
  let total = total_s t in
  List.map
    (fun l -> (l, if total > 0.0 then self_s t l /. total else 0.0))
    names

let print ~title t =
  Printf.printf "[e2e] %s self time by layer (%d traced ops):\n" title t.ops;
  List.iter
    (fun (l, frac) ->
      let s = self_s t l in
      if s > 0.0 then
        Printf.printf "[e2e]   %-10s %10.2f ms total %9.3f ms/op %6.1f%%\n" l
          (s *. 1e3)
          (s *. 1e3 /. float_of_int (max 1 t.ops))
          (100.0 *. frac))
    (fractions t)

let to_json t =
  J.obj
    (List.map
       (fun (l, frac) ->
         (l, J.obj [ ("self_s", J.number (self_s t l)); ("frac", J.number frac) ]))
       (fractions t)
    @ [ ("ops", string_of_int t.ops) ])

(* Chrome trace_event JSON of the kept events of every table, oldest
   first (timestamps in microseconds) *)
let write_chrome path tables =
  let event (ev : Trace.event) =
    let us = Mdh_obs.Clock.ns_to_us in
    let ph, extra =
      match ev.Trace.ev_ph with
      | Trace.Complete d -> ("X", [ ("dur", J.number (us d)) ])
      | Trace.Instant -> ("i", [ ("s", J.quote "t") ])
      | Trace.Counter _ -> ("C", [])
    in
    let args =
      match ev.Trace.ev_ph with
      | Trace.Counter v -> [ (ev.Trace.ev_name, J.number v) ]
      | _ -> List.map (fun (k, v) -> (k, J.quote v)) ev.Trace.ev_args
    in
    J.obj
      ([ ("name", J.quote ev.Trace.ev_name); ("cat", J.quote ev.Trace.ev_cat);
         ("ph", J.quote ph); ("ts", J.number (us ev.Trace.ev_ts_ns));
         ("pid", "1"); ("tid", string_of_int ev.Trace.ev_tid) ]
      @ extra
      @ [ ("args", J.obj args) ])
  in
  let events = List.concat_map (fun t -> List.rev_map event t.kept) tables in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.obj [ ("traceEvents", J.arr events) ]);
      output_char oc '\n')
