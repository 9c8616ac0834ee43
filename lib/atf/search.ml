module Rng = Mdh_support.Rng
module Pool = Mdh_runtime.Pool
module Trace = Mdh_obs.Trace
module Metrics = Mdh_obs.Metrics

(* evaluation accounting lives on the registry (cheap atomic increments,
   always on); the best-so-far trajectory is a trace counter track,
   emitted only while tracing — neither influences the search itself, so
   results are bit-identical with observability on or off *)
let m_evals = Metrics.counter "atf.search.evaluations"
let m_improvements = Metrics.counter "atf.search.improvements"
let m_degraded = Metrics.counter "runtime.pool.degraded"

type result = {
  best : Param.config;
  best_cost : float;
  evaluations : int;
  trace : (int * float) list;
}

type state = {
  mutable s_best : Param.config option;
  mutable s_best_cost : float;
  mutable s_evals : int;
  mutable s_trace : (int * float) list;
}

let fresh () = { s_best = None; s_best_cost = infinity; s_evals = 0; s_trace = [] }

let record st config cost =
  st.s_evals <- st.s_evals + 1;
  Metrics.incr m_evals;
  match cost with
  | None -> None
  | Some c ->
    if c < st.s_best_cost then begin
      st.s_best <- Some config;
      st.s_best_cost <- c;
      st.s_trace <- (st.s_evals, c) :: st.s_trace;
      Metrics.incr m_improvements;
      Trace.counter_event ~cat:"atf" "search.best_cost_s" c
    end;
    Some c

let evaluate st cost config = record st config (cost config)

let finish st =
  match st.s_best with
  | None -> None
  | Some best ->
    Some
      { best; best_cost = st.s_best_cost; evaluations = st.s_evals;
        trace = List.rev st.s_trace }

(* graceful pool degradation: a failed or timed-out parallel fan-out is
   retried sequentially in the caller instead of aborting the tuning run.
   Deterministic searches make the retry exact — the same candidates are
   re-evaluated in the same order (and a one-shot injected fault has
   already fired). A fault that also fires sequentially still propagates. *)
let degraded_once = Atomic.make false

let note_degraded what exn =
  Metrics.incr m_degraded;
  if not (Atomic.exchange degraded_once true) then
    Printf.eprintf
      "mdh: pool: %s failed (%s); degrading to sequential execution\n%!" what
      (Printexc.to_string exn)

let evaluate_batch ?pool ~cost configs =
  let n = Array.length configs in
  let sequentially () = Array.map cost configs in
  match pool with
  | None -> sequentially ()
  | Some pool -> (
    (* pool-managed evaluation is fault-tolerant whatever the worker
       count: on a single-core host the pool has no extra domains and the
       batch runs sequentially, but a failed attempt is still retried
       (the cost memo makes the replay cheap and deterministic) *)
    let attempt () =
      if n > 1 && Pool.num_workers pool > 1 && not (Pool.degraded pool) then begin
        let costs = Array.make n None in
        Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> costs.(i) <- cost configs.(i));
        costs
      end
      else sequentially ()
    in
    try attempt ()
    with exn ->
      note_degraded "cost-evaluation batch" exn;
      sequentially ())

(* evaluating a batch out-of-order is only observable through the state
   updates, so fan the cost calls out and absorb them in index order: the
   best/trace/evaluation bookkeeping is bit-identical to a sequential
   loop. Absorption proceeds in bounded chunks so a deadline can stop
   the search between chunks (partial results stay well-defined). *)
let absorb_chunk = 64

let absorb_batch ?pool ?(should_stop = fun () -> false) st ~cost configs =
  let n = Array.length configs in
  let i = ref 0 in
  while !i < n && not (should_stop ()) do
    let stop = min n (!i + absorb_chunk) in
    let chunk = Array.sub configs !i (stop - !i) in
    let costs = evaluate_batch ?pool ~cost chunk in
    Array.iteri (fun j config -> ignore (record st config costs.(j))) chunk;
    i := stop
  done

let exhaustive ?pool ?should_stop space ~cost =
  Trace.with_span ~cat:"atf" "search.exhaustive" @@ fun () ->
  let st = fresh () in
  absorb_batch ?pool ?should_stop st ~cost (Array.of_list (Space.enumerate space));
  finish st

let random_search ?pool ?should_stop space ~seed ~budget ~cost =
  Trace.with_span ~cat:"atf" "search.random"
    ~args:[ ("seed", string_of_int seed) ]
  @@ fun () ->
  let st = fresh () in
  let rng = Rng.create seed in
  (* sampling never depends on the costs, so draw the full candidate list
     up front (sequential rng) and evaluate it as one batch; the attempt
     cap bounds the draw over spaces where most samples dead-end *)
  let candidates = ref [] in
  let drawn = ref 0 and attempts = ref 0 in
  while !drawn < budget && !attempts < budget * 10 do
    incr attempts;
    match Space.sample space rng with
    | None -> ()
    | Some config ->
      candidates := config :: !candidates;
      incr drawn
  done;
  absorb_batch ?pool ?should_stop st ~cost (Array.of_list (List.rev !candidates));
  finish st

(* --- simulated annealing as an explicit, checkpointable chain state ---

   The complete progress of one annealing chain is a small first-order
   value: the rng state (one int64), the evaluation count, the best /
   current points and the cooling scale. Running a chain is a pure step
   function over that state, which is what makes deadline suspension and
   crash-safe resume bit-identical to an uninterrupted run: resuming
   from a snapshot replays the exact rng draw sequence the uninterrupted
   chain would have made. *)

type chain_state = {
  cs_seed : int;
  cs_rng : int64;
  cs_evals : int;
  cs_best : Param.config option;
  cs_best_cost : float;
  cs_trace : (int * float) list; (* newest improvement first, like [state] *)
  cs_current : (Param.config * float) option; (* None until init succeeds *)
  cs_t0 : float; (* cooling scale, fixed by the initial point *)
  cs_done : bool;
}

let chain_start ~seed =
  { cs_seed = seed; cs_rng = Rng.state (Rng.create seed); cs_evals = 0;
    cs_best = None; cs_best_cost = infinity; cs_trace = []; cs_current = None;
    cs_t0 = 0.0; cs_done = false }

let chain_result state =
  match state.cs_best with
  | None -> None
  | Some best ->
    Some
      { best; best_cost = state.cs_best_cost; evaluations = state.cs_evals;
        trace = List.rev state.cs_trace }

let anneal_chain ?(should_stop = fun () -> false) ?on_progress
    ?(progress_every = 64) space ~budget ~cost state =
  if state.cs_done then state
  else
    Trace.with_span ~cat:"atf" "search.anneal"
      ~args:[ ("seed", string_of_int state.cs_seed) ]
    @@ fun () ->
    let progress_every = max 1 progress_every in
    let st =
      { s_best = state.cs_best; s_best_cost = state.cs_best_cost;
        s_evals = state.cs_evals; s_trace = state.cs_trace }
    in
    let rng = Rng.of_state state.cs_rng in
    let snapshot ~current ~t0 ~done_ =
      { state with cs_rng = Rng.state rng; cs_evals = st.s_evals;
        cs_best = st.s_best; cs_best_cost = st.s_best_cost;
        cs_trace = st.s_trace; cs_current = current; cs_t0 = t0;
        cs_done = done_ }
    in
    let init =
      match state.cs_current with
      | Some (current, current_cost) -> Some (current, current_cost, state.cs_t0)
      | None ->
        (* the initial point is found in one uninterruptible burst (at
           most 100 draws), so a checkpointed chain is always either
           un-started or past initialization *)
        let rec initial tries =
          if tries = 0 then None
          else
            match Space.sample space rng with
            | None -> initial (tries - 1)
            | Some config -> (
              match evaluate st cost config with
              | Some c -> Some (config, c)
              | None -> initial (tries - 1))
        in
        Option.map
          (fun (start, start_cost) ->
            (start, start_cost, Float.max 1e-30 (start_cost *. 0.5)))
          (initial 100)
    in
    match init with
    | None -> snapshot ~current:None ~t0:0.0 ~done_:true
    | Some (start, start_cost, t0) ->
      let current = ref start and current_cost = ref start_cost in
      let notify done_ =
        match on_progress with
        | None -> ()
        | Some f ->
          f (snapshot ~current:(Some (!current, !current_cost)) ~t0 ~done_)
      in
      let paused = ref false in
      while st.s_evals < budget && not !paused do
        if should_stop () then paused := true
        else begin
          let progress = float_of_int st.s_evals /. float_of_int budget in
          let temp = t0 *. exp (-5.0 *. progress) in
          let candidate = Space.neighbour space rng !current in
          (match evaluate st cost candidate with
          | None -> ()
          | Some c ->
            let accept =
              c < !current_cost
              || Rng.float rng 1.0 < exp ((!current_cost -. c) /. Float.max 1e-30 temp)
            in
            if accept then begin
              current := candidate;
              current_cost := c
            end);
          if st.s_evals mod progress_every = 0 then notify false
        end
      done;
      let final =
        snapshot ~current:(Some (!current, !current_cost)) ~t0
          ~done_:(st.s_evals >= budget)
      in
      if final.cs_done then notify true;
      final

(* combine chain results: keep the best chain; ties go to the earliest
   seed in the list, so the winner is a function of the seed list alone,
   parallel or sequential; evaluations sum over every chain that
   produced a result *)
let combine_chain_results chains =
  let evaluations =
    Array.fold_left
      (fun acc -> function Some r -> acc + r.evaluations | None -> acc)
      0 chains
  in
  let winner =
    Array.fold_left
      (fun acc chain ->
        match (acc, chain) with
        | None, c -> c
        | (Some _ as a), None -> a
        | Some a, Some c -> if c.best_cost < a.best_cost then chain else acc)
      None chains
  in
  Option.map (fun r -> { r with evaluations }) winner

type portfolio_outcome =
  | Portfolio_done of result option
  | Portfolio_paused of chain_state array

let anneal_portfolio ?pool ?should_stop ?on_progress ?progress_every space
    ~chains ~budget ~cost =
  let run i state () =
    anneal_chain ?should_stop
      ?on_progress:(Option.map (fun f s -> f i s) on_progress)
      ?progress_every space ~budget ~cost state
  in
  let thunks = Array.mapi run chains in
  let sequentially () = Array.map (fun thunk -> thunk ()) thunks in
  let states =
    match pool with
    | None -> sequentially ()
    | Some pool -> (
      let attempt () =
        if
          Array.length thunks > 1
          && Pool.num_workers pool > 1
          && not (Pool.degraded pool)
        then Pool.run_in_parallel pool thunks
        else sequentially ()
      in
      (* rerun every chain sequentially from its given (immutable)
         starting state: deterministic, so the fallback result is the
         one the failed attempt would have produced. This holds on a
         single-core host too, where the pool has no extra domains and
         even the first attempt runs sequentially. *)
      try attempt ()
      with exn ->
        note_degraded "annealing portfolio" exn;
        sequentially ())
  in
  if Array.exists (fun s -> not s.cs_done) states then Portfolio_paused states
  else Portfolio_done (combine_chain_results (Array.map chain_result states))
