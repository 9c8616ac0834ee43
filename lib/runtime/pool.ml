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
  pub_mutex : Mutex.t;
  mutable pub_jobs : int;
  mutable pub_busy_s : float;
  mutable pub_capacity_s : float;
      (* totals already pushed onto the registry, so [publish_metrics] can
         run any number of times mid-flight and only add the delta *)
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
      created_ns = Clock.now_ns (); watchdog_s; is_degraded = Atomic.make false;
      pub_mutex = Mutex.create (); pub_jobs = 0; pub_busy_s = 0.0;
      pub_capacity_s = 0.0 }
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

let parallel_reduce t ?grain ~lo ~hi ~map ~combine seed =
  if hi <= lo then seed
  else begin
    let n = hi - lo in
    let grain =
      match grain with
      | Some g -> max 1 g
      | None -> max 1 (n / (8 * num_workers t))
    in
    let n_chunks = (n + grain - 1) / grain in
    let partials = Array.make n_chunks None in
    parallel_for t ~grain:1 ~lo:0 ~hi:n_chunks (fun c ->
        let start = lo + (c * grain) in
        let stop = min hi (start + grain) in
        let acc = ref (map start) in
        for i = start + 1 to stop - 1 do
          acc := combine !acc (map i)
        done;
        partials.(c) <- Some !acc);
    Array.fold_left
      (fun acc p -> match p with Some v -> combine acc v | None -> acc)
      seed partials
  end

let scan_sequential f xs =
  let n = Array.length xs in
  let out = Array.make n xs.(0) in
  for i = 1 to n - 1 do
    out.(i) <- f out.(i - 1) xs.(i)
  done;
  out

let scan_inclusive t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else if num_workers t = 1 then scan_sequential f xs
  else begin
    let workers = num_workers t in
    let n_blocks = min n (workers * 4) in
    let block_size = (n + n_blocks - 1) / n_blocks in
    let out = Array.make n xs.(0) in
    (* phase 1: scan each block independently *)
    parallel_for t ~grain:1 ~lo:0 ~hi:n_blocks (fun b ->
        let start = b * block_size in
        let stop = min n (start + block_size) in
        if start < stop then begin
          out.(start) <- xs.(start);
          for i = start + 1 to stop - 1 do
            out.(i) <- f out.(i - 1) xs.(i)
          done
        end);
    (* phase 2: exclusive scan of block totals, sequential (n_blocks is tiny) *)
    let carries = Array.make n_blocks None in
    let carry = ref None in
    for b = 0 to n_blocks - 1 do
      carries.(b) <- !carry;
      let start = b * block_size in
      let stop = min n (start + block_size) in
      if start < stop then begin
        let total = out.(stop - 1) in
        carry := Some (match !carry with None -> total | Some c -> f c total)
      end
    done;
    (* phase 3: apply carries in parallel *)
    parallel_for t ~grain:1 ~lo:0 ~hi:n_blocks (fun b ->
        match carries.(b) with
        | None -> ()
        | Some c ->
          let start = b * block_size in
          let stop = min n (start + block_size) in
          for i = start to stop - 1 do
            out.(i) <- f c out.(i)
          done);
    out
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

type stats = {
  workers : int;
  jobs_run : int;
  busy_s : float array;
  wall_s : float;
  utilization : float;
}

let stats t =
  let wall_s = Clock.ns_to_s (Int64.sub (Clock.now_ns ()) t.created_ns) in
  let busy_s = Array.map Clock.ns_to_s t.busy_ns in
  let n_domains = Array.length t.domains in
  let utilization =
    (* fraction of the worker domains' lifetime spent running jobs; the
       caller's share (slot 0) is excluded because the caller is busy with
       its own sequential work between jobs *)
    if n_domains = 0 || wall_s <= 0.0 then 0.0
    else
      Array.fold_left ( +. ) 0.0 (Array.sub busy_s 1 n_domains)
      /. (wall_s *. float_of_int n_domains)
  in
  { workers = num_workers t; jobs_run = Atomic.get t.jobs; busy_s; wall_s;
    utilization }

let publish_metrics t =
  (* delta-publish so a live pool can be scraped any number of times
     before shutdown without double-counting its history *)
  Mutex.lock t.pub_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.pub_mutex)
    (fun () ->
      let s = stats t in
      let n_domains = Array.length t.domains in
      Metrics.add m_jobs (s.jobs_run - t.pub_jobs);
      t.pub_jobs <- s.jobs_run;
      Metrics.set m_workers (float_of_int s.workers);
      if n_domains > 0 then begin
        (* busy and capacity cover the worker domains only, mirroring
           [stats]: cumulative across every pool this process has retired *)
        let busy = Array.fold_left ( +. ) 0.0 (Array.sub s.busy_s 1 n_domains) in
        let capacity_now = s.wall_s *. float_of_int n_domains in
        Metrics.add_gauge m_busy (busy -. t.pub_busy_s);
        Metrics.add_gauge m_capacity (capacity_now -. t.pub_capacity_s);
        t.pub_busy_s <- busy;
        t.pub_capacity_s <- capacity_now;
        let capacity = Metrics.gauge_value m_capacity in
        if capacity > 0.0 then
          Metrics.set m_utilization (Metrics.gauge_value m_busy /. capacity)
      end)

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
