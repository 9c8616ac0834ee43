module Md_hom = Mdh_core.Md_hom
module Device = Mdh_machine.Device
module Schedule = Mdh_lowering.Schedule
module Lower = Mdh_lowering.Lower
module Cost = Mdh_lowering.Cost

module Trace = Mdh_obs.Trace
module Metrics = Mdh_obs.Metrics
module Clock = Mdh_obs.Clock
module Crc32 = Mdh_support.Crc32
module Fault = Mdh_fault.Fault

let m_runs = Metrics.counter "atf.tuner.runs"
let m_db_recalls = Metrics.counter "atf.tuner.db_recalls"
let m_tune_s = Metrics.histogram "atf.tuner.tune_s"
let m_ckpt_writes = Metrics.counter "atf.checkpoint.writes"
let m_ckpt_resumes = Metrics.counter "atf.checkpoint.resumes"
let m_ckpt_corrupt = Metrics.counter "atf.checkpoint.corrupt"

type strategy = Exhaustive | Random | Anneal | Auto

type tuning = {
  schedule : Schedule.t;
  estimated_s : float;
  search : Search.result;
  from_db : bool;
}

let tile_param_name d = Printf.sprintf "tile_%d" d

let space ?parallel_options ?(saturate = false) (md : Md_hom.t) (dev : Device.t) =
  let rank = Md_hom.rank md in
  let bytes_per_point = max 4 (Md_hom.bytes_read_per_point md) in
  (* interdependence: the points covered by a tile must fit a generous
     multiple of the mid-level cache, pruning hopeless tile combinations *)
  let budget_points =
    let mid =
      if Array.length dev.Device.mem > 1 then dev.Device.mem.(1) else Device.top_level dev
    in
    max 4 (8 * mid.Device.capacity_bytes / bytes_per_point)
  in
  let tile_params =
    List.init rank (fun d ->
        (* rewrite-aware pruning: on a dimension of extent > 1, tile size 1
           plans the same sequential sweep as the full extent but cut into
           unit tiles — exactly the structure the plan rewriter's unit-tile
           elimination removes — so the saturated space need not search it *)
        let base =
          let all = Lower.tile_options md ~dim:d in
          if saturate && md.Md_hom.sizes.(d) > 1 then
            match List.filter (fun t -> t <> 1) all with
            | [] -> all
            | pruned -> pruned
          else all
        in
        Param.dependent (tile_param_name d) (fun config ->
            let used =
              List.fold_left
                (fun acc (name, v) ->
                  if String.length name >= 5 && String.sub name 0 5 = "tile_" then acc * v
                  else acc)
                1 config
            in
            match List.filter (fun t -> t = 1 || t * used <= budget_points) base with
            | [] ->
              (* tile 1 was pruned and every remaining tile busts the cache
                 budget: keep the smallest so the dimension stays legal *)
              [ List.fold_left min max_int base ]
            | options -> options))
  in
  let par_options =
    Array.of_list
      (match parallel_options with
      | Some options -> options
      | None -> Lower.parallel_dim_options md)
  in
  let par_param = Param.independent "par" (List.init (Array.length par_options) Fun.id) in
  let decode config =
    let tiles = Array.init rank (fun d -> Param.value config (tile_param_name d)) in
    let par = par_options.(Param.value config "par") in
    { Schedule.tile_sizes = tiles; parallel_dims = par;
      used_layers = List.init (Array.length dev.Device.layers) Fun.id }
  in
  (Space.make (tile_params @ [ par_param ]), decode)

let strategy_name = function
  | Exhaustive -> "exhaustive"
  | Random -> "random"
  | Anneal -> "anneal"
  | Auto -> "auto"

let db_key ~ctx ~strategy ~budget ~seed ~chains ~parallel_options ~saturate =
  Mdh_support.Memo.key
    ([ "tune-v1";
       Cost_cache.context_key ctx;
       strategy_name strategy;
       string_of_int budget;
       string_of_int seed;
       string_of_int chains;
       (match parallel_options with
       | None -> "default-par"
       | Some options ->
         String.concat ";"
           (List.map
              (fun dims -> String.concat "," (List.map string_of_int dims))
              options)) ]
    (* appended only when rewriting, so pre-existing database entries for
       raw searches keep their keys *)
    @ if saturate then [ "+rewrite" ] else [])

let db_hit_result estimated_s =
  { Search.best = []; best_cost = estimated_s; evaluations = 0; trace = [] }

(* --- crash-safe annealing checkpoints ---

   A checkpoint is a small text file: one CRC-framed header naming the
   tuning request (its database key plus the portfolio shape) and one
   CRC-framed line per annealing chain holding that chain's complete
   {!Search.chain_state}. Floats are serialized with [%h] and the rng
   state with [%Lx], so every value round-trips exactly — which is what
   makes a resumed search bit-identical to an uninterrupted one. The file
   is replaced atomically (tmp + rename); a torn or corrupt checkpoint is
   therefore only possible through outside interference, and is answered
   by starting the search afresh, never by aborting. *)

let ckpt_magic = "mdh-ckpt-v1"

let config_to_string = function
  | [] -> "."
  | config ->
    String.concat "," (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) config)

let config_of_string = function
  | "." -> Some []
  | s ->
    let binding b =
      match String.index_opt b '=' with
      | None -> None
      | Some i ->
        Option.map
          (fun v -> (String.sub b 0 i, v))
          (int_of_string_opt (String.sub b (i + 1) (String.length b - i - 1)))
    in
    List.fold_right
      (fun b acc ->
        match (binding b, acc) with Some kv, Some l -> Some (kv :: l) | _ -> None)
      (String.split_on_char ',' s) (Some [])

let trace_to_string = function
  | [] -> "."
  | trace ->
    String.concat ";"
      (List.map (fun (i, c) -> Printf.sprintf "%d:%h" i c) trace)

let trace_of_string = function
  | "." -> Some []
  | s ->
    let entry e =
      match String.index_opt e ':' with
      | None -> None
      | Some i -> (
        match
          ( int_of_string_opt (String.sub e 0 i),
            float_of_string_opt (String.sub e (i + 1) (String.length e - i - 1)) )
        with
        | Some idx, Some c -> Some (idx, c)
        | _ -> None)
    in
    List.fold_right
      (fun e acc ->
        match (entry e, acc) with Some ic, Some l -> Some (ic :: l) | _ -> None)
      (String.split_on_char ';' s) (Some [])

let framed body = Printf.sprintf "%s\t%s" body (Crc32.to_hex (Crc32.string body))

(* [Some body] iff the line's trailing CRC matches *)
let unframed line =
  match String.rindex_opt line '\t' with
  | None -> None
  | Some i ->
    let body = String.sub line 0 i in
    let crc = String.sub line (i + 1) (String.length line - i - 1) in
    if Crc32.of_hex crc = Some (Crc32.string body) then Some body else None

let chain_to_line (s : Search.chain_state) =
  framed
    (String.concat "\t"
       [ string_of_int s.Search.cs_seed;
         Printf.sprintf "%Lx" s.Search.cs_rng;
         string_of_int s.Search.cs_evals;
         (match s.Search.cs_best with None -> "-" | Some c -> config_to_string c);
         Printf.sprintf "%h" s.Search.cs_best_cost;
         trace_to_string s.Search.cs_trace;
         (match s.Search.cs_current with
         | None -> "-"
         | Some (c, _) -> config_to_string c);
         (match s.Search.cs_current with
         | None -> "-"
         | Some (_, c) -> Printf.sprintf "%h" c);
         Printf.sprintf "%h" s.Search.cs_t0;
         (if s.Search.cs_done then "1" else "0") ])

let chain_of_line line =
  Option.bind (unframed line) @@ fun body ->
  match String.split_on_char '\t' body with
  | [ seed; rng; evals; best; best_cost; trace; cur_cfg; cur_cost; t0; done_ ]
    -> (
    let int = int_of_string_opt and fl = float_of_string_opt in
    let rng =
      try Some (Int64.of_string ("0x" ^ rng)) with Failure _ -> None
    in
    let best =
      match best with "-" -> Some None | c -> Option.map Option.some (config_of_string c)
    in
    let current =
      match (cur_cfg, cur_cost) with
      | "-", "-" -> Some None
      | c, f -> (
        match (config_of_string c, fl f) with
        | Some c, Some f -> Some (Some (c, f))
        | _ -> None)
    in
    match
      ( int seed, rng, int evals, best, fl best_cost, trace_of_string trace,
        current, fl t0, done_ )
    with
    | ( Some cs_seed, Some cs_rng, Some cs_evals, Some cs_best,
        Some cs_best_cost, Some cs_trace, Some cs_current, Some cs_t0,
        ("0" | "1") ) ->
      Some
        { Search.cs_seed; cs_rng; cs_evals; cs_best; cs_best_cost; cs_trace;
          cs_current; cs_t0; cs_done = done_ = "1" }
    | _ -> None)
  | _ -> None

let default_checkpoint_path ~db key =
  let dir =
    match Option.bind db Tuning_db.path with
    | Some db_path -> Filename.dirname db_path
    | None -> Filename.get_temp_dir_name ()
  in
  Filename.concat dir (Printf.sprintf "mdh-%s.ckpt" key)

let ckpt_warned = Atomic.make false

let write_checkpoint ~path ~key ~budget ~chains ~seed slots =
  let header =
    framed
      (String.concat "\t"
         [ ckpt_magic; key; string_of_int budget; string_of_int chains;
           string_of_int seed ])
  in
  let lines = header :: List.map chain_to_line (Array.to_list slots) in
  let data = String.concat "\n" lines ^ "\n" in
  try
    Fault.hit "db.write";
    let data = Fault.mangle "db.write" data in
    (* a temp file of its own per write: two identical tunes share [path]
       but must never interleave their bytes in one temp file. Once
       renamed it is gone, so the cleanup only bites on failure. *)
    let tmp =
      Filename.temp_file ~temp_dir:(Filename.dirname path)
        (Filename.basename path) ".tmp"
    in
    Fun.protect
      ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc data);
        Fault.hit "db.rename";
        Sys.rename tmp path);
    Metrics.incr m_ckpt_writes
  with Sys_error _ | Unix.Unix_error _ | Fault.Injected _ ->
    (* a failing checkpoint write never fails the tuning run — it only
       costs crash-safety, which is worth one warning *)
    if not (Atomic.exchange ckpt_warned true) then
      Printf.eprintf
        "mdh: warning: cannot write checkpoint %s; continuing without \
         crash-safety\n%!"
        path

type ckpt_read =
  | Ck_missing
  | Ck_corrupt
  | Ck_stale  (** well-formed, but for a different tuning request *)
  | Ck_ok of Search.chain_state array

let read_checkpoint ~path ~key ~chains =
  match
    (try
       Fault.hit "db.read";
       Some (In_channel.with_open_bin path In_channel.input_lines)
     with
    | Sys_error _ -> None
    | Fault.Injected _ | Unix.Unix_error _ -> Some [])
  with
  | None -> Ck_missing
  | Some [] -> Ck_corrupt
  | Some (header :: rest) -> (
    match Option.map (String.split_on_char '\t') (unframed header) with
    | Some [ magic; k; _budget; n; _seed ] when magic = ckpt_magic ->
      if k <> key || n <> string_of_int chains then Ck_stale
      else
        let states = List.filter_map chain_of_line rest in
        if List.length states = chains && List.length rest = chains then
          Ck_ok (Array.of_list states)
        else Ck_corrupt
    | _ -> Ck_corrupt)

let remove_checkpoint path = try Sys.remove path with Sys_error _ -> ()

type outcome =
  | Tuned of tuning
  | Suspended of { checkpoint : string; evaluations : int }

let tune_resumable ?(strategy = Auto) ?(budget = 400) ?(seed = 1) ?(chains = 1)
    ?pool ?parallel_options ?db ?deadline_s ?checkpoint
    ?(checkpoint_every = 64) ?(resume = false) ?should_stop ?(saturate = false)
    md dev cg =
  let chains = max 1 chains in
  (* tier-1 saturation first: the searched computation is the one that will
     execute, and its (possibly lower) flops_per_point feeds the cost model *)
  let md =
    if saturate then fst (Mdh_rewrite.Rewrite.saturate_outputs md) else md
  in
  Metrics.incr m_runs;
  let t_start = Clock.now_ns () in
  let result =
    Trace.with_span ~cat:"atf" "tuner.tune"
      ~args:
        [ ("workload", md.Md_hom.hom_name);
          ("device", dev.Device.device_name);
          ("strategy", strategy_name strategy);
          ("budget", string_of_int budget) ]
    @@ fun () ->
    let ctx = Cost_cache.context md dev cg in
    let db = match db with Some _ as d -> d | None -> Tuning_db.ambient () in
    let key =
      db_key ~ctx ~strategy ~budget ~seed ~chains ~parallel_options ~saturate
    in
    let recalled =
      Trace.with_span ~cat:"atf" "tuner.db_lookup" (fun () ->
          Option.bind db (fun d -> Tuning_db.find d key))
    in
    match recalled with
    | Some (schedule, estimated_s) ->
      Metrics.incr m_db_recalls;
      Ok
        (Tuned
           { schedule; estimated_s; search = db_hit_result estimated_s;
             from_db = true })
    | None -> (
      let sp, decode =
        Trace.with_span ~cat:"atf" "tuner.space_build" (fun () ->
            space ?parallel_options ~saturate md dev)
      in
      let cost config =
        match Cost_cache.seconds ctx (decode config) with
        | Ok s -> Some s
        | Error _ -> None
      in
      let deadline_stop =
        Option.map
          (fun limit ->
            let t0 = Clock.now_ns () in
            fun () -> Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t0) >= limit)
          deadline_s
      in
      let stop =
        match (deadline_stop, should_stop) with
        | None, None -> None
        | (Some _ as s), None | None, (Some _ as s) -> s
        | Some f, Some g -> Some (fun () -> f () || g ())
      in
      (* batch strategies stop between evaluation chunks: the partial best
         is a valid (if under-searched) result, but is not recorded in the
         database, where it would shadow the full search forever *)
      let ran_to_completion () =
        match stop with Some f -> not (f ()) | None -> true
      in
      let per_budget = max 1 (budget / chains) in
      let anneal () =
        (* K independent chains splitting the budget; the seed list depends
           only on (seed, chains), so the outcome is identical with or
           without a pool. Checkpoints are read and written only while a
           deadline, stop predicate, checkpoint path or resume request is
           in effect; otherwise the search does no i/o at all. *)
        let checkpointing = resume || Option.is_some stop || Option.is_some checkpoint in
        let ckpt_path =
          match checkpoint with
          | Some p -> p
          | None -> default_checkpoint_path ~db key
        in
        let fresh_chains () =
          Array.init chains (fun i -> Search.chain_start ~seed:(seed + i))
        in
        let initial =
          if not resume then fresh_chains ()
          else
            match read_checkpoint ~path:ckpt_path ~key ~chains with
            | Ck_ok states ->
              Metrics.incr m_ckpt_resumes;
              states
            | Ck_missing -> fresh_chains ()
            | Ck_stale ->
              Printf.eprintf
                "mdh: checkpoint %s belongs to a different tuning request; \
                 starting fresh\n%!"
                ckpt_path;
              fresh_chains ()
            | Ck_corrupt ->
              Metrics.incr m_ckpt_corrupt;
              Printf.eprintf "mdh: checkpoint %s is corrupt; starting fresh\n%!"
                ckpt_path;
              fresh_chains ()
        in
        let slots = Array.copy initial in
        let slots_mutex = Mutex.create () in
        let save () =
          write_checkpoint ~path:ckpt_path ~key ~budget:per_budget ~chains ~seed
            slots
        in
        let on_progress i s =
          Mutex.protect slots_mutex (fun () ->
              slots.(i) <- s;
              save ())
        in
        match
          Search.anneal_portfolio ?pool ?should_stop:stop
            ?on_progress:(if checkpointing then Some on_progress else None)
            ~progress_every:checkpoint_every sp ~chains:initial
            ~budget:per_budget ~cost
        with
        | Search.Portfolio_done r ->
          if checkpointing then remove_checkpoint ckpt_path;
          `Done (r, true)
        | Search.Portfolio_paused states ->
          (* only a stop predicate pauses a chain, so checkpointing is on *)
          Array.blit states 0 slots 0 chains;
          save ();
          `Paused
            ( ckpt_path,
              Array.fold_left (fun acc s -> acc + s.Search.cs_evals) 0 states )
      in
      let batch r = `Done (r, ran_to_completion ()) in
      let search_result =
        Trace.with_span ~cat:"atf" "tuner.search" (fun () ->
            match strategy with
            | Exhaustive -> batch (Search.exhaustive ?pool ?should_stop:stop sp ~cost)
            | Random ->
              batch (Search.random_search ?pool ?should_stop:stop sp ~seed ~budget ~cost)
            | Anneal -> anneal ()
            | Auto ->
              if Space.size ~cap:(budget + 1) sp <= budget then
                batch (Search.exhaustive ?pool ?should_stop:stop sp ~cost)
              else anneal ())
      in
      match search_result with
      | `Paused (checkpoint, evaluations) ->
        Ok (Suspended { checkpoint; evaluations })
      | `Done (None, _) -> Error "tuning found no legal schedule"
      | `Done (Some search, complete) ->
        (* floor the stochastic search at the heuristic starting point: the
           default tiles with the first (largest) allowed parallel set *)
        let searched = decode search.Search.best in
        let floor_schedule =
          { (Lower.mdh_default md dev) with
            Schedule.parallel_dims =
              (match parallel_options with
              | Some (first :: _) -> first
              | Some [] | None -> Lower.parallelisable_dims md) }
        in
        let schedule, estimated_s =
          match Cost_cache.seconds ctx floor_schedule with
          | Ok floor_s when floor_s < search.Search.best_cost -> (floor_schedule, floor_s)
          | _ -> (searched, search.Search.best_cost)
        in
        if complete then
          Option.iter (fun d -> Tuning_db.store d key schedule estimated_s) db;
        Ok (Tuned { schedule; estimated_s; search; from_db = false }))
  in
  Metrics.observe m_tune_s (Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t_start));
  result

let tune ?strategy ?budget ?seed ?chains ?pool ?parallel_options ?db ?saturate
    md dev cg =
  match
    tune_resumable ?strategy ?budget ?seed ?chains ?pool ?parallel_options ?db
      ?saturate md dev cg
  with
  | Ok (Tuned t) -> Ok t
  | Ok (Suspended _) -> assert false (* no deadline or stop was supplied *)
  | Error e -> Error e
