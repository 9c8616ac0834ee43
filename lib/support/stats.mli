(** Descriptive statistics and confidence-interval-driven measurement,
    following Hoefler & Belli, "Scientific Benchmarking of Parallel Computing
    Systems" (SC '15), as cited in Section 5.1 of the paper: measurements are
    collected until the 99% confidence interval is within a target fraction
    of the mean. *)

val mean : float array -> float
val variance : float array -> float
(** Unbiased sample variance; 0 for fewer than two samples. *)

val stddev : float array -> float
val median : float array -> float
val min : float array -> float
val max : float array -> float

val ci99_halfwidth : float array -> float
(** Half-width of the 99% confidence interval of the mean, using the normal
    approximation (z = 2.576); 0 for fewer than two samples. *)

val ranks : float array -> float array
(** Fractional (mid-) ranks, 1-based; ties share the average of the
    positions they occupy. *)

val pearson : float array -> float array -> float
(** Pearson correlation coefficient; [nan] for fewer than two samples or
    when either variable is constant. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation (Pearson over tie-aware ranks): 1 when the
    two variables rank identically, -1 when inversely; [nan] when a
    variable is constant. *)

val kendall : float array -> float array -> float
(** Kendall tau-b rank correlation (tie-corrected). *)

type measurement = {
  mean : float;
  stddev : float;
  ci99 : float;  (** half-width *)
  samples : int;
}

val measure_until_ci :
  ?rel_ci:float -> ?min_samples:int -> ?max_samples:int -> (unit -> float) ->
  measurement
(** [measure_until_ci f] repeatedly evaluates [f] (each call returning one
    sample, e.g. a runtime in seconds) until the 99% CI half-width is within
    [rel_ci] (default 0.05) of the running mean, bounded by [min_samples]
    (default 5) and [max_samples] (default 1000). *)
