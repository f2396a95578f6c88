(** Order statistics for benchmark samples.

    Every timing the benchmark reports is a median with its sample
    count; tails use the highest percentile that still has at least ten
    samples beyond it, so a p99 is only claimed from 1,000 samples. *)

val median : float array -> float
(** Middle value, or the mean of the two middle values for an even
    count (Python's [statistics.median]). [nan] when empty. *)

val percentile : float array -> float -> float
(** [percentile xs p] linearly interpolates between closest ranks
    ([p] in 0..100). [nan] when empty. *)

val quartiles : float array -> float * float * float
(** Q1, median, Q3 by the "exclusive" method of Python's
    [statistics.quantiles (n=4)], so the figures match the ones the
    spread check computes. A single sample is its own quartiles. *)

val tail : float array -> float * float
(** [(p, value)]: the highest of p99.9, p99, p95, p90, p75 and p50 with
    at least ten samples beyond it, and its value. With fewer than 20
    samples no percentile qualifies and the maximum is returned as
    [(100., max)]. *)
