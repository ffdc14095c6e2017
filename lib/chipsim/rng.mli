(** Deterministic PRNG (splitmix64).

    Every simulated component owns its own stream so experiment results are
    reproducible regardless of scheduling order. *)

type t

val create : int -> t
(** Seeded generator; equal seeds give equal streams. *)

val next : t -> int64
val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** Uniform in [\[0, bound)]. *)

val bits53 : t -> int
(** The 53 random bits {!float} scales: [float t 1.0] is
    [float_of_int (bits53 t) /. 2^53] for the same draw.  An unboxed
    alternative for callers that compare against fixed thresholds. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
