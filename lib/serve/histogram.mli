(** Log-bucketed latency histogram.

    Bucket boundaries grow geometrically from 1, so a fixed,
    small number of integer counters covers nanoseconds to seconds with a
    bounded relative error of 12% per quantile (bucket ratio 1.12).  This is the
    HdrHistogram idea reduced to what the serving layer needs: cheap
    [observe], deterministic quantiles, mergeability. *)

type t

val create : unit -> t
(** The first bucket's upper bound is 1 (1 ns when observing latencies in
    ns); each next bound is 1.12 times the last. *)

val observe : t -> float -> unit
(** Record one sample.  Negative and NaN samples count into the first
    bucket; astronomically large (or infinite) samples clamp into a fixed
    top bucket, so a single absurd value can neither overflow the bucket
    computation nor allocate an unbounded counts array. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0 when empty. *)

val max_value : t -> float
(** [neg_infinity] when empty. *)

val p50 : t -> float
(** [p50], [p95], [p99] and {!p999} read the [q] = 0.5 .. 0.999 quantile:
    the upper bound of the bucket holding the [ceil (q * count)]-th
    smallest sample, clamped to the largest sample seen (so never above
    {!max_value}).  0 when empty.  Deterministic: depends only on the
    multiset of samples. *)

val p95 : t -> float
val p99 : t -> float

val p999 : t -> float
(** The 99.9th percentile — the serving-tail metric SLO reports quote. *)

val merge : t -> t -> unit
(** [merge dst src] adds [src]'s samples into [dst]. *)
