module Clock = Mdh_obs.Clock
module Metrics = Mdh_obs.Metrics
module Trace = Mdh_obs.Trace

type t = {
  mutable domains : unit Domain.t array;
  mutex : Mutex.t;
  job_ready : Condition.t;
  job_done : Condition.t;
  mutable job : (unit -> unit) option;
  mutable generation : int;
  mutable active : int;
  mutable stop : bool;
  mutable stopped : bool;
  in_job : bool Atomic.t;
      (* nested submission from inside a job would deadlock the pool; detect
         it and fail loudly instead *)
  busy_ns : int64 array;
      (* per-domain busy time: slot 0 is the submitting caller's share,
         slot i+1 is worker i. Single writer per slot. *)
  jobs : int Atomic.t;
  created_ns : int64;
  watchdog_s : float option;
      (* per-job barrier timeout; None waits forever (the original
         behaviour, and the default) *)
  is_degraded : bool Atomic.t;
      (* set when the watchdog expires: the pool may still be wedged
         behind a stuck worker, so every later job runs sequentially in
         the caller instead of aborting the run *)
}

exception Watchdog_timeout

(* process-wide accumulators, published when pools shut down, so the
   front ends can report utilization after [with_pool] has closed *)
let m_jobs = Metrics.counter "runtime.pool.jobs"
let m_busy = Metrics.gauge "runtime.pool.busy_s"
let m_capacity = Metrics.gauge "runtime.pool.capacity_s"
let m_utilization = Metrics.gauge "runtime.pool.utilization"
let m_workers = Metrics.gauge "runtime.pool.workers"
let m_degraded = Metrics.counter "runtime.pool.degraded"

let worker pool i () =
  let seen = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock pool.mutex;
    while (not pool.stop) && (pool.generation = !seen || pool.job = None) do
      Condition.wait pool.job_ready pool.mutex
    done;
    if pool.stop then begin
      Mutex.unlock pool.mutex;
      continue := false
    end
    else begin
      seen := pool.generation;
      let job = Option.get pool.job in
      Mutex.unlock pool.mutex;
      (* [run_job] hands workers a wrapper that funnels exceptions into the
         job's error channel; the catch-all here only protects pool
         liveness (a dead worker domain would deadlock the barrier). The
         fault site fires before the job body, modelling a worker that
         dies or stalls at job pickup. *)
      let t0 = Clock.now_ns () in
      Trace.with_span ~cat:"runtime" "pool.worker_job" (fun () ->
          try
            Mdh_fault.Fault.hit "pool.job";
            job ()
          with _ -> ());
      pool.busy_ns.(i + 1) <-
        Int64.add pool.busy_ns.(i + 1) (Int64.sub (Clock.now_ns ()) t0);
      Mutex.lock pool.mutex;
      pool.active <- pool.active - 1;
      if pool.active = 0 then Condition.broadcast pool.job_done;
      Mutex.unlock pool.mutex
    end
  done

let create ?num_domains ?watchdog_s () =
  let n =
    match num_domains with
    | Some n -> max 0 n
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let pool =
    { domains = [||]; mutex = Mutex.create (); job_ready = Condition.create ();
      job_done = Condition.create (); job = None; generation = 0; active = 0;
      stop = false; stopped = false; in_job = Atomic.make false;
      busy_ns = Array.make (n + 1) 0L; jobs = Atomic.make 0;
      created_ns = Clock.now_ns (); watchdog_s; is_degraded = Atomic.make false }
  in
  pool.domains <- Array.init n (fun i -> Domain.spawn (worker pool i));
  pool

let num_workers t = Array.length t.domains + 1
let degraded t = Atomic.get t.is_degraded

let mark_degraded t why =
  if not (Atomic.exchange t.is_degraded true) then begin
    Metrics.incr m_degraded;
    Printf.eprintf
      "mdh: pool: %s; degrading to sequential execution for the rest of \
       this pool's lifetime\n%!"
      why
  end

(* barrier wait for the workers; caller holds [t.mutex]. With a watchdog,
   a polling wait (stdlib [Condition] has no timed wait) bounds how long
   a stuck or stalled worker can wedge the whole run; [false] = expired. *)
let wait_workers t =
  match t.watchdog_s with
  | None ->
    while t.active > 0 do
      Condition.wait t.job_done t.mutex
    done;
    true
  | Some limit ->
    let deadline =
      Int64.add (Clock.now_ns ()) (Int64.of_float (limit *. 1e9))
    in
    let alive = ref true in
    while t.active > 0 && !alive do
      if Int64.compare (Clock.now_ns ()) deadline > 0 then alive := false
      else begin
        Mutex.unlock t.mutex;
        Unix.sleepf 0.002;
        Mutex.lock t.mutex
      end
    done;
    !alive

(* time the caller's own share of a job into slot 0 (waiting at the
   barrier is excluded: only the execution of [share] counts as busy) *)
let timed_caller_share t share =
  let t0 = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      t.busy_ns.(0) <- Int64.add t.busy_ns.(0) (Int64.sub (Clock.now_ns ()) t0))
    share

let run_job t job =
  Atomic.incr t.jobs;
  if Array.length t.domains = 0 || degraded t then timed_caller_share t job
  else if not (Atomic.compare_and_set t.in_job false true) then
    invalid_arg
      "Pool: nested parallel submission from inside a running job (would deadlock); \
       run nested work sequentially or use a second pool"
  else begin
    (* every executing domain (workers and the caller) routes its failure
       into this channel; the first one wins and is re-raised in the caller
       once all domains have finished *)
    let error = Atomic.make None in
    let wrapped () =
      try job ()
      with e -> ignore (Atomic.compare_and_set error None (Some e))
    in
    Trace.with_span ~cat:"runtime" "pool.job" (fun () ->
        Mutex.lock t.mutex;
        t.job <- Some wrapped;
        t.generation <- t.generation + 1;
        t.active <- Array.length t.domains;
        Condition.broadcast t.job_ready;
        Mutex.unlock t.mutex;
        (* even if the caller's share raises (or an async exception lands), the
           pool must wait for its workers and reset its state — otherwise the
           stale [job]/[in_job] poison every later submission *)
        let share_exn =
          match timed_caller_share t wrapped with
          | () -> None
          | exception e -> Some e
        in
        Mutex.lock t.mutex;
        let finished = wait_workers t in
        if finished then begin
          t.job <- None;
          Mutex.unlock t.mutex;
          Atomic.set t.in_job false
        end
        else begin
          Mutex.unlock t.mutex;
          (* the barrier was abandoned with a worker still out there, so
             the pool state ([job], [in_job], [active]) must stay frozen
             for it; the degraded flag routes every later job around the
             wedged machinery *)
          mark_degraded t
            (Printf.sprintf "worker watchdog expired after %.3gs"
               (Option.get t.watchdog_s));
          raise Watchdog_timeout
        end;
        match share_exn with Some e -> raise e | None -> ());
    match Atomic.get error with Some e -> raise e | None -> ()
  end

let parallel_for t ?grain ~lo ~hi body =
  if hi > lo then begin
    let n = hi - lo in
    let grain =
      match grain with
      | Some g -> max 1 g
      | None -> max 1 (n / (8 * num_workers t))
    in
    if n <= grain || num_workers t = 1 then
      for i = lo to hi - 1 do body i done
    else begin
      let next = Atomic.make lo in
      let error = Atomic.make None in
      let job () =
        let continue = ref true in
        while !continue do
          let start = Atomic.fetch_and_add next grain in
          if start >= hi then continue := false
          else begin
            let stop = min hi (start + grain) in
            try
              for i = start to stop - 1 do body i done
            with e ->
              ignore (Atomic.compare_and_set error None (Some e));
              continue := false
          end
        done
      in
      run_job t job;
      match Atomic.get error with Some e -> raise e | None -> ()
    end
  end

let chunk_budget t = num_workers t * 2

let split_range ~extent ~pieces =
  let n = max 1 (min extent pieces) in
  let chunk = (extent + n - 1) / n in
  List.init n (fun c -> (c * chunk, min chunk (extent - (c * chunk))))
  |> List.filter (fun (_, sz) -> sz > 0)

let run_in_parallel t thunks =
  let n = Array.length thunks in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    parallel_for t ~grain:1 ~lo:0 ~hi:n (fun i -> results.(i) <- Some (thunks.(i) ()));
    Array.map Option.get results
  end

(* push the pool's lifetime totals onto the registry, accumulating across
   every pool this process has retired; [shutdown] calls it once *)
let publish_metrics t =
  let n_domains = Array.length t.domains in
  Metrics.add m_jobs (Atomic.get t.jobs);
  Metrics.set m_workers (float_of_int (num_workers t));
  if n_domains > 0 then begin
    (* busy time and capacity cover the worker domains only: the caller's
       share (slot 0) is excluded because the caller is busy with its own
       sequential work between jobs *)
    let wall_s = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t.created_ns) in
    let busy =
      Array.fold_left
        (fun acc ns -> acc +. Clock.ns_to_s ns)
        0.0 (Array.sub t.busy_ns 1 n_domains)
    in
    Metrics.add_gauge m_busy busy;
    Metrics.add_gauge m_capacity (wall_s *. float_of_int n_domains);
    let capacity = Metrics.gauge_value m_capacity in
    if capacity > 0.0 then
      Metrics.set m_utilization (Metrics.gauge_value m_busy /. capacity)
  end

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.job_ready;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains;
    publish_metrics t
  end

let with_pool ?num_domains ?watchdog_s f =
  let pool = create ?num_domains ?watchdog_s () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
