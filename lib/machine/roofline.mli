(** Roofline-style execution-time estimation.

    An execution is summarised by {!stats} — operation count, the traffic
    observed at each memory-level boundary, host-link transfers, and launch
    count — together with efficiency factors describing how well the schedule
    exploits the device (parallel utilisation, SIMD efficiency, pipeline
    efficiency). The estimated time is the maximum of the compute and
    per-level memory times (overlapped), plus serial overheads. *)

type stats = {
  flops : float;  (** scalar operations performed (including combine steps) *)
  level_bytes : float array;
      (** traffic crossing into each memory level, indexed as [Device.mem]
          (element 0 = DRAM traffic) *)
  link_bytes : float;  (** host<->device transfer bytes (0 when unused) *)
  launches : int;  (** kernel launches / parallel-region entries *)
  serial_ops : float;
      (** operations that cannot be parallelised (e.g. a serialised
          reduction executed by one unit) *)
}

type efficiency = {
  parallel_fraction : float;
      (** effective fraction of the device's parallel units kept busy,
          in (0, 1]; the compute roof is scaled by it *)
  compute_efficiency : float;
      (** pipeline/ILP efficiency of the generated inner loop, in (0, 1] *)
  bandwidth_efficiency : float;  (** achieved fraction of peak bandwidth *)
}

val ideal : efficiency

type breakdown = {
  compute_s : float;
  memory_s : float array;  (** per memory level *)
  link_s : float;
  serial_s : float;
  overhead_s : float;
  total_s : float;
}

val estimate : Device.t -> efficiency -> stats -> breakdown
(** [total_s = max(compute, memory levels...) + serial + link + overhead]. *)
