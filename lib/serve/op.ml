(* The operation table (see op.mli): each work op once, as a typed
   request, a typed result, a JSON codec for both, one [run] and one
   printer. Anything that changes a result is a request field; process
   configuration is the [ctx] and never travels. *)

module Jin = Mdh_support.Json_in
module J = Mdh_obs.Json
module W = Mdh_workloads.Workload
module Catalog = Mdh_workloads.Catalog
module Device = Mdh_machine.Device
module Schedule = Mdh_lowering.Schedule
module Plan = Mdh_lowering.Plan
module Lower = Mdh_lowering.Lower
module Cost = Mdh_lowering.Cost
module Tuner = Mdh_atf.Tuner
module Tuning_db = Mdh_atf.Tuning_db
module Pool = Mdh_runtime.Pool
module D = Mdh_analysis.Diagnostic
module R = Mdh_rewrite.Rewrite
module Md_hom = Mdh_core.Md_hom

let version = "1.9.0"

(* the tuner consults the ambient database (and the in-memory tables)
   from every internal call site — baselines included — so every front end
   configures them process-wide before running anything *)
let setup_cache ~no_cache ~tuning_db =
  if no_cache then begin
    Mdh_support.Memo.set_caching false;
    Tuning_db.set_ambient None
  end
  else
    let db =
      match tuning_db with
      | Some path -> Tuning_db.open_db path
      | None -> (
        match Tuning_db.default_path () with
        | Some path -> Tuning_db.open_db path
        | None ->
          (* no writable cache location (no XDG_CACHE_HOME/HOME): tune
             in memory rather than littering the cwd *)
          Tuning_db.in_memory ())
    in
    Tuning_db.set_ambient (Some db)

type error = string * string

(* inside this module a failure raises [Failed]; every entry point of an op
   record turns it back into a result *)
exception Failed of error

let fail code fmt = Printf.ksprintf (fun m -> raise (Failed (code, m))) fmt
let ok_or code = function Ok v -> v | Error m -> raise (Failed (code, m))
let guard f x = try Ok (f x) with Failed e -> Error e

(* --- process context --- *)

type ctx = {
  with_pool : 'a. (Pool.t -> 'a) -> 'a;
  tune_in_pool : bool;  (** tune searches on [with_pool] *)
  checkpoint : string option;  (** local tune checkpoint path *)
  checkpoint_every : int;
  state_dir : string option;  (** daemon: checkpoints under request tokens *)
  should_stop : (unit -> bool) option;
  max_deadline_s : float option;
}

let local ?(parallel = false) ?checkpoint ?(checkpoint_every = 64) () =
  { with_pool = (fun f -> Pool.with_pool f); tune_in_pool = parallel;
    checkpoint; checkpoint_every; state_dir = None; should_stop = None;
    max_deadline_s = None }

let serving ~state_dir ~max_deadline_s ~should_stop =
  { with_pool =
      (fun f ->
        (* a zero-domain pool keeps concurrent exec handlers independent:
           no shared worker set to contend for or poison, and Exec still
           gets the host device it expects *)
        let pool = Pool.create ~num_domains:0 () in
        Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool));
    tune_in_pool = false; checkpoint = None; checkpoint_every = 64;
    state_dir = Some state_dir; should_stop = Some should_stop; max_deadline_s }

(* --- printing --- *)

type view = { json : bool; digest : bool; strict : bool }

let plain = { json = false; digest = false; strict = false }

type printed = { out : string; err : string; status : int }

let printed ?(err = "") ?(status = 0) out = { out; err; status }

type ('req, 'res) t = {
  name : string;
  encode_request : 'req -> (string * string) list;
  decode_request : Jin.t -> ('req, error) result;
  run : ctx -> 'req -> ('res, error) result;
  encode_result : 'res -> (string * string) list;
  decode_result : Jin.t -> ('res, error) result;
  print : view -> 'req -> 'res -> printed;
}

(* --- shared decoding --- *)

let find_workload name =
  match Catalog.find name with
  | Some w -> Ok w
  | None ->
    Error
      (Printf.sprintf "unknown workload %S; try: %s" name
         (String.concat ", "
            (List.map (fun (w : W.t) -> String.lowercase_ascii w.W.wl_name) Catalog.all)))

let device_of = function
  | "gpu" -> Ok Device.a100_like
  | "cpu" -> Ok Device.xeon6140_like
  | s -> Error (Printf.sprintf "unknown device %S (gpu|cpu)" s)

let params_of (w : W.t) = function
  | "test" -> Ok w.W.test_params
  | inp -> (
    match List.assoc_opt inp w.W.paper_inputs with
    | Some params -> Ok params
    | None -> Error (Printf.sprintf "workload has no input set %S" inp))

type subject = { workload : string; device : string; input : string }

let resolve s =
  let w = ok_or "bad_request" (find_workload s.workload) in
  let dev = ok_or "bad_request" (device_of s.device) in
  (w, dev, ok_or "bad_request" (params_of w s.input))

let wl_name (w : W.t) = String.lowercase_ascii w.W.wl_name

(* absent and wrongly-typed request fields both take the default *)
let str b k d = Option.value ~default:d (Jin.get_string b k)
let int b k d = Option.fold ~none:d ~some:(fun f -> int_of_float (Float.round f)) (Jin.get_float b k)
let flag b k = Jin.get_bool b k = Some true
let bool b = if b then "true" else "false"
let num = Protocol.number

let subject_fields s =
  [ ("workload", J.quote s.workload); ("device", J.quote s.device);
    ("input", J.quote s.input) ]

let subject_of b =
  match Jin.get_string b "workload" with
  | None -> fail "bad_request" "request has no \"workload\" field"
  | Some workload -> { workload; device = str b "device" "cpu"; input = str b "input" "test" }

(* result fields are required: a reply is data, never trusted blindly *)
let need get b k = match get b k with Some v -> v | None -> fail "bad_reply" "reply is missing %S" k
let need_str = need Jin.get_string
let need_num = need Jin.get_float
let need_int b k = int_of_float (Float.round (need_num b k))

let make name ~encode_request ~decode_request ~run ~encode_result ~decode_result
    ~print =
  { name; encode_request; decode_request = guard decode_request;
    run = (fun ctx -> guard (run ctx)); encode_result;
    decode_result = guard decode_result; print }

(* --- tune --- *)

module Tune = struct
  type req = {
    subject : subject; budget : int; seed : int; chains : int;
    strategy : Tuner.strategy; no_rewrite : bool; deadline_s : float option;
    resume : bool; token : string option;
  }

  type res =
    | Tuned of {
        schedule : Schedule.t; estimated_s : float; evaluations : int;
        trace : (int * float) list; from_db : bool; elapsed_s : float;
      }
    | Suspended of { token : string; evaluations : int }

  let strategies =
    [ ("auto", Tuner.Auto); ("exhaustive", Tuner.Exhaustive);
      ("random", Tuner.Random); ("anneal", Tuner.Anneal) ]

  let strategy_name s = fst (List.find (fun (_, s') -> s' = s) strategies)

  (* The checkpoint name is a pure function of every search-relevant
     request knob, so a client that re-sends the same request with
     ["resume": true] finds its own checkpoint without bookkeeping, across
     daemon restarts. Explicit tokens never escape the state dir. *)
  let derive_token (w : W.t) (dev : Device.t) r =
    let key =
      String.concat "|"
        [ wl_name w; dev.Device.device_name; r.subject.input;
          string_of_int r.budget; string_of_int r.seed; string_of_int r.chains;
          strategy_name r.strategy; string_of_bool (not r.no_rewrite) ]
    in
    "tune-" ^ Mdh_support.Crc32.to_hex (Mdh_support.Crc32.string key) ^ ".ckpt"

  let token_ok token =
    token <> "" && String.length token <= 128 && token.[0] <> '.'
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
         token

  let run ctx r =
    let w, dev, params = resolve r.subject in
    let deadline_s =
      match (r.deadline_s, ctx.max_deadline_s) with
      | Some d, Some cap -> Some (Float.min d cap)
      | d, None | None, d -> d
    in
    let checkpoint, token =
      match ctx.state_dir with
      | None -> (ctx.checkpoint, None)
      | Some dir ->
        let token = Option.value r.token ~default:(derive_token w dev r) in
        (Some (Filename.concat dir token), Some token)
    in
    let md = W.to_md_hom w params in
    let tune pool =
      Tuner.tune_resumable ~strategy:r.strategy ~budget:r.budget ~seed:r.seed
        ~chains:r.chains ?pool ?deadline_s ?checkpoint
        ~checkpoint_every:ctx.checkpoint_every ~resume:r.resume
        ?should_stop:ctx.should_stop ~saturate:(not r.no_rewrite) md dev
        Cost.tuned_codegen
    in
    let result, elapsed_s =
      Mdh_support.Util.time_it (fun () ->
          if ctx.tune_in_pool then ctx.with_pool (fun p -> tune (Some p))
          else tune None)
    in
    match ok_or "tune_failed" result with
    | Tuner.Suspended { checkpoint; evaluations } ->
      Suspended { token = Option.value token ~default:checkpoint; evaluations }
    | Tuner.Tuned t ->
      let search = t.Tuner.search in
      Tuned
        { schedule = t.Tuner.schedule; estimated_s = t.Tuner.estimated_s;
          evaluations = search.Mdh_atf.Search.evaluations;
          trace = search.Mdh_atf.Search.trace; from_db = t.Tuner.from_db;
          elapsed_s }

  let encode_request r =
    subject_fields r.subject
    @ [ ("budget", string_of_int r.budget); ("seed", string_of_int r.seed);
        ("chains", string_of_int r.chains);
        ("strategy", J.quote (strategy_name r.strategy));
        ("no_rewrite", bool r.no_rewrite);
        ("resume", match r.token with Some t -> J.quote t | None -> bool r.resume) ]
    @ match r.deadline_s with Some d -> [ ("deadline_s", num d) ] | None -> []

  let decode_request b =
    let strategy = str b "strategy" "auto" in
    let resume, token =
      match Jin.member "resume" b with
      | None | Some (Jin.Bool false) -> (false, None)
      | Some (Jin.Bool true) -> (true, None)
      | Some (Jin.Str t) when token_ok t -> (true, Some t)
      | Some (Jin.Str _) -> fail "bad_request" "malformed resume token"
      | Some _ -> fail "bad_request" "\"resume\" must be a boolean or a token"
    in
    { subject = subject_of b; budget = int b "budget" 400; seed = int b "seed" 1;
      chains = int b "chains" 1;
      strategy =
        (match List.assoc_opt strategy strategies with
        | Some s -> s
        | None -> fail "bad_request" "unknown strategy %S" strategy);
      no_rewrite = flag b "no_rewrite"; deadline_s = Jin.get_float b "deadline_s";
      resume; token }

  let encode_result = function
    | Suspended { token; evaluations } ->
      [ ("status", J.quote "suspended"); ("token", J.quote token);
        ("evaluations", string_of_int evaluations) ]
    | Tuned t ->
      [ ("status", J.quote "tuned");
        ("schedule", J.quote (Schedule.to_string t.schedule));
        ("estimated_s", num t.estimated_s);
        ("evaluations", string_of_int t.evaluations);
        ("from_db", bool t.from_db); ("elapsed_s", num t.elapsed_s);
        ("trace",
         J.arr (List.map (fun (e, c) -> J.arr [ string_of_int e; num c ]) t.trace)) ]

  let decode_result b =
    let evaluations = need_int b "evaluations" in
    if Jin.get_string b "status" = Some "suspended" then
      Suspended { token = need_str b "token"; evaluations }
    else
      let point = function
        | Jin.Arr [ Jin.Num e; Jin.Num c ] -> (int_of_float e, c)
        | _ -> fail "bad_reply" "malformed trace point"
      in
      Tuned
        { schedule = ok_or "bad_reply" (Schedule.of_string (need_str b "schedule"));
          estimated_s = need_num b "estimated_s"; evaluations;
          trace = List.map point (need Jin.get_list b "trace");
          from_db = need Jin.get_bool b "from_db"; elapsed_s = need_num b "elapsed_s" }

  let print _ _ = function
    | Suspended { token; evaluations } ->
      printed ~status:3 ""
        ~err:
          (Printf.sprintf
             "mdhc: tune: search suspended after %d evaluations; progress saved to %s\n\
              mdhc: rerun with --resume to continue the search\n" evaluations token)
    | Tuned t ->
      let b = Buffer.create 256 in
      Printf.bprintf b "best schedule: %s\nestimated time: %.6gs\n"
        (Schedule.to_string t.schedule) t.estimated_s;
      if t.from_db then
        Printf.bprintf b "recalled from tuning db (0 evaluations) in %.3gs\n"
          t.elapsed_s
      else begin
        Printf.bprintf b "evaluations: %d, improvements: %d (%.3gs wall)\n"
          t.evaluations (List.length t.trace) t.elapsed_s;
        List.iter (fun (e, c) -> Printf.bprintf b "  #%-5d -> %.6gs\n" e c) t.trace
      end;
      printed (Buffer.contents b)

  let op =
    make "tune" ~encode_request ~decode_request ~run ~encode_result
      ~decode_result ~print
end

(* --- plan --- *)

module Plan_op = struct
  type req = { subject : subject; schedule : string option }

  type res = {
    workload : string; device : string; digest : string; parallelism : int; plan : string;
  }

  let run _ r =
    let w, dev, params = resolve r.subject in
    let md = W.to_md_hom w params in
    let sched =
      match r.schedule with
      | Some s -> ok_or "bad_request" (Schedule.of_string s)
      | None -> Lower.mdh_default md dev
    in
    let workload = wl_name w and device = dev.Device.device_name in
    match Plan.build md dev sched with
    | Error e -> fail "plan_failed" "%s on %s: %s" workload device e
    | Ok plan ->
      { workload; device; digest = Plan.digest plan;
        parallelism = Plan.parallelism plan;
        plan = Format.asprintf "%a" Plan.pp plan }

  let encode_request r =
    subject_fields r.subject
    @ match r.schedule with Some s -> [ ("schedule", J.quote s) ] | None -> []

  let decode_request b = { subject = subject_of b; schedule = Jin.get_string b "schedule" }

  let encode_result p =
    [ ("workload", J.quote p.workload); ("digest", J.quote p.digest);
      ("parallelism", string_of_int p.parallelism);
      ("device", J.quote p.device); ("plan", J.quote p.plan) ]

  let decode_result b =
    { workload = need_str b "workload"; device = need_str b "device";
      digest = need_str b "digest"; parallelism = need_int b "parallelism";
      plan = need_str b "plan" }

  let print (view : view) r p =
    printed
      (if view.digest then
         Printf.sprintf "%-12s %-4s %s\n" p.workload r.subject.device p.digest
       else
         Printf.sprintf "%s on %s (parallelism %d, digest %s):\n%s\n\n"
           p.workload p.device p.parallelism p.digest p.plan)

  let op =
    make "plan" ~encode_request ~decode_request ~run ~encode_result
      ~decode_result ~print
end

(* --- check --- *)

module Check = struct
  type source = { file : string; text : string; params : (string * int) list }
  type req = { workload : string option; source : source option }
  type res = (string * D.t list) list

  let target (w : W.t) =
    ("workload:" ^ w.W.wl_name, Mdh_analysis.Analyze.directive (w.W.make w.W.test_params))

  let run _ r =
    match (r.source, r.workload) with
    | Some s, _ ->
      let name = Filename.remove_extension (Filename.basename s.file) in
      [ (s.file, Mdh_analysis.Analyze.pragma ~name ~params:s.params s.text) ]
    | None, Some name -> [ target (ok_or "bad_request" (find_workload name)) ]
    | None, None -> List.map target Catalog.all

  let encode_request r =
    (match r.workload with Some w -> [ ("workload", J.quote w) ] | None -> [])
    @
    match r.source with
    | None -> []
    | Some s ->
      [ ("file", J.quote s.file); ("source", J.quote s.text);
        ("params", J.obj (List.map (fun (k, v) -> (k, string_of_int v)) s.params)) ]

  let decode_request b =
    let param = function
      | k, Jin.Num v -> (k, int_of_float v)
      | k, _ -> fail "bad_request" "parameter %S is not a number" k
    in
    let params =
      match Jin.member "params" b with Some (Jin.Obj kvs) -> List.map param kvs | _ -> []
    in
    { workload = Jin.get_string b "workload";
      source =
        Option.map
          (fun text -> { file = str b "file" "source.mdh"; text; params })
          (Jin.get_string b "source") }

  let encode_result (targets : res) =
    let all = List.concat_map snd targets in
    let diag target (d : D.t) =
      J.obj
        ([ ("target", J.quote target); ("code", J.quote d.D.code);
           ("severity", J.quote (D.severity_to_string d.D.severity));
           ("message", J.quote d.D.message) ]
        @ (match d.D.span with
          | None -> []
          | Some s -> [ ("line", string_of_int s.D.line); ("col", string_of_int s.D.col) ])
        @ match d.D.subject with Some s -> [ ("subject", J.quote s) ] | None -> [])
    in
    [ ("targets", string_of_int (List.length targets));
      ("uris", J.arr (List.map (fun (uri, _) -> J.quote uri) targets));
      ("errors", string_of_int (D.error_count all));
      ("warnings", string_of_int (D.warning_count all));
      ("hints", string_of_int (D.hint_count all));
      ("diagnostics",
       J.arr (List.concat_map (fun (t, ds) -> List.map (diag t) ds) targets)) ]

  let decode_result b =
    let diag d =
      let sev = need_str d "severity" in
      let span =
        match (Jin.get_float d "line", Jin.get_float d "col") with
        | Some l, Some c -> Some { D.line = int_of_float l; col = int_of_float c }
        | _ -> None
      in
      ( need_str d "target",
        { D.code = need_str d "code"; span; subject = Jin.get_string d "subject";
          message = need_str d "message";
          severity =
            (match
               List.find_opt (fun s -> D.severity_to_string s = sev) [ D.Error; D.Warning; D.Hint ]
             with
            | Some s -> s
            | None -> fail "bad_reply" "unknown severity %S" sev) } )
    in
    let diags = List.map diag (need Jin.get_list b "diagnostics") in
    List.map
      (function
        | Jin.Str uri -> (uri, List.filter_map (fun (t, d) -> if t = uri then Some d else None) diags)
        | _ -> fail "bad_reply" "malformed target uri")
      (need Jin.get_list b "uris")

  let print (view : view) _ (targets : res) =
    let all = List.concat_map snd targets in
    let status = D.exit_code ~strict:view.strict all in
    if view.json then printed ~status (D.sarif ~tool_version:version targets ^ "\n")
    else begin
      let b = Buffer.create 1024 in
      List.iter
        (fun (uri, ds) -> if ds <> [] then Printf.bprintf b "%s:\n%s\n" uri (D.render ~file:uri ds))
        targets;
      Printf.bprintf b "checked %d target(s): %d error(s), %d warning(s), %d hint(s)\n"
        (List.length targets) (D.error_count all) (D.warning_count all)
        (D.hint_count all);
      printed ~status (Buffer.contents b)
    end

  let op =
    make "check" ~encode_request ~decode_request ~run ~encode_result
      ~decode_result ~print
end

(* --- optimize --- *)

module Optimize = struct
  type req = { subject : subject; no_rewrite : bool }
  type res = { workload : string; device : string; summary : R.summary }

  let run _ r =
    let w, dev, params = resolve r.subject in
    let md = W.to_md_hom w params in
    let cg = Cost.tuned_codegen in
    let sched = Lower.mdh_default md dev in
    let report =
      if r.no_rewrite then
        (* escape hatch: the raw plan, untouched — same report shape so
           --json consumers need no special case *)
        let plan = ok_or "optimize_failed" (Plan.build md dev sched) in
        let seconds = ok_or "optimize_failed" (Cost.seconds md dev cg sched) in
        { R.r_md = md; r_raw_plan = plan; r_plan = plan; r_raw_seconds = seconds;
          r_seconds = seconds; r_applied = [] }
      else
        let oracle = Mdh_analysis.Opcheck_oracle.oracle () in
        ok_or "optimize_failed" (R.optimize ~oracle md dev cg sched)
    in
    { workload = wl_name w; device = dev.Device.device_name; summary = R.summarize report }

  let encode_request r = subject_fields r.subject @ [ ("no_rewrite", bool r.no_rewrite) ]
  let decode_request b = { subject = subject_of b; no_rewrite = flag b "no_rewrite" }

  let encode_result o =
    let s = o.summary in
    let rule (a : R.rule_summary) =
      J.obj
        [ ("tier", J.quote a.R.rs_tier); ("rule", J.quote a.R.rs_rule);
          ("site", J.quote a.R.rs_site); ("detail", J.quote a.R.rs_detail);
          ("kind", J.quote (if a.R.rs_verified then "verified" else "pure"));
          ("justification", J.quote a.R.rs_justification) ]
    in
    [ ("workload", J.quote o.workload); ("device", J.quote o.device);
      ("raw_digest", J.quote s.R.s_raw_digest); ("digest", J.quote s.R.s_digest);
      ("raw_point_flops", string_of_int s.R.s_raw_point_flops);
      ("point_flops", string_of_int s.R.s_point_flops);
      ("raw_seconds", num s.R.s_raw_seconds); ("seconds", num s.R.s_seconds);
      ("applied", J.arr (List.map rule s.R.s_applied)) ]

  let decode_result b =
    let rule a =
      { R.rs_tier = need_str a "tier"; rs_rule = need_str a "rule";
        rs_site = need_str a "site"; rs_detail = need_str a "detail";
        rs_verified = need_str a "kind" = "verified";
        rs_justification = need_str a "justification" }
    in
    { workload = need_str b "workload"; device = need_str b "device";
      summary =
        { R.s_raw_digest = need_str b "raw_digest"; s_digest = need_str b "digest";
          s_raw_point_flops = need_int b "raw_point_flops";
          s_point_flops = need_int b "point_flops";
          s_raw_seconds = need_num b "raw_seconds"; s_seconds = need_num b "seconds";
          s_applied = List.map rule (need Jin.get_list b "applied") } }

  let print (view : view) _ o =
    printed
      (if view.json then R.summary_json ~name:o.workload ~device:o.device o.summary ^ "\n"
       else Format.asprintf "%a@." (R.pp_summary ~name:o.workload ~device:o.device) o.summary)

  let op =
    make "optimize" ~encode_request ~decode_request ~run ~encode_result
      ~decode_result ~print
end

(* --- exec --- *)

module Exec_op = struct
  type backend = Auto | Interp | Special | Cc

  type req = { subject : subject; seed : int; parallel : bool; backend : backend }

  type res = { workload : string; elapsed_s : float; checked : bool }

  let backends = [ ("auto", Auto); ("interp", Interp); ("special", Special); ("cc", Cc) ]

  (* the one oracle tolerance for every backend *)
  let matches (md : Md_hom.t) got expected =
    let data env (o : Md_hom.output) =
      Mdh_tensor.Buffer.data (Mdh_tensor.Buffer.env_find env o.Md_hom.out_name)
    in
    List.for_all
      (fun o -> Mdh_tensor.Dense.approx_equal ~rel:1e-3 ~abs:1e-4 (data got o) (data expected o))
      md.Md_hom.outputs

  let special pool md sched env =
    let plan = ok_or "exec_failed" (Plan.build md (Mdh_runtime.Exec.host_device pool) sched) in
    match Mdh_runtime.Specializer.run pool plan md env with
    | Ok env' -> env'
    | Error e -> fail "exec_failed" "specializer: %s" e

  let run ctx r =
    let w, _, params = resolve r.subject in
    let md = W.to_md_hom w params in
    let env = w.W.gen params ~seed:r.seed in
    let sched =
      if r.parallel then
        { (Schedule.sequential md) with
          Schedule.parallel_dims = Lower.parallelisable_dims md }
      else Schedule.sequential md
    in
    let timed = Mdh_support.Util.time_it in
    let in_pool f = ctx.with_pool (fun pool -> timed (fun () -> f pool)) in
    let dispatch ~specialize pool =
      ok_or "exec_failed" (Mdh_runtime.Exec.run ~specialize pool md sched env)
    in
    let out, elapsed_s =
      match r.backend with
      | Auto -> in_pool (dispatch ~specialize:true)
      | Interp -> in_pool (dispatch ~specialize:false)
      | Special -> in_pool (fun pool -> special pool md sched env)
      | Cc -> timed (fun () -> ok_or "exec_failed" (Mdh_codegen.Cc.execute md env))
    in
    let workload = md.Md_hom.hom_name in
    match w.W.reference with
    | None -> { workload; elapsed_s; checked = false }
    | Some oracle when matches md out (oracle params env) -> { workload; elapsed_s; checked = true }
    | Some _ -> fail "exec_mismatch" "%s: result check failed" workload

  let encode_request r =
    subject_fields r.subject
    @ [ ("seed", string_of_int r.seed); ("parallel", bool r.parallel);
        ("backend", J.quote (fst (List.find (fun (_, b) -> b = r.backend) backends))) ]

  (* the daemon never runs a C compiler on a client's behalf *)
  let decode_request b =
    let backend = str b "backend" "auto" in
    { subject = subject_of b; seed = int b "seed" 1; parallel = flag b "parallel";
      backend =
        (match List.assoc_opt backend backends with
        | Some be when be <> Cc -> be
        | _ -> fail "bad_request" "backend %S is not served (auto|interp|special)" backend) }

  let encode_result e =
    [ ("workload", J.quote e.workload); ("elapsed_s", num e.elapsed_s);
      ("checked", if e.checked then "true" else "null") ]

  let decode_result b =
    let workload = need_str b "workload" in
    match Jin.member "checked" b with
    | Some (Jin.Bool false) -> fail "exec_mismatch" "%s: result check failed" workload
    | c -> { workload; elapsed_s = need_num b "elapsed_s"; checked = c = Some (Jin.Bool true) }

  let print _ r e =
    let mode =
      match r.backend with
      | Cc -> "compiled OpenMP C"
      | Interp -> "reference"
      | b ->
        (if r.parallel then "parallel" else "sequential")
        ^ if b = Special then " specializer" else ""
    in
    printed
      (Printf.sprintf "executed %s in %.4fs (%s)\n%s\n" e.workload e.elapsed_s mode
         (if e.checked then "result check: OK"
          else "no independent oracle for this workload"))

  let op =
    make "exec" ~encode_request ~decode_request ~run ~encode_result
      ~decode_result ~print
end

(* --- the table mdhd dispatches on --- *)

type any = Op : ('req, 'res) t -> any

let table = [ Op Tune.op; Op Plan_op.op; Op Check.op; Op Optimize.op; Op Exec_op.op ]

let handle ctx name body =
  List.find_map
    (fun (Op op) ->
      if op.name <> name then None
      else
        Some
          (Result.bind (op.decode_request body) (fun req ->
               Result.map op.encode_result (op.run ctx req))))
    table
