(** Deterministic splittable PRNG (splitmix64).

    Every simulated component owns its own stream so experiment results are
    reproducible regardless of scheduling order. *)

type t

val create : int -> t
(** Seeded generator; equal seeds give equal streams. *)

val split : t -> t
(** Derive an independent stream (e.g., one per worker). *)

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

(** Zipfian draws in [\[0, n)] with skew [theta] (0 = uniform; YCSB's
    default is 0.99), via the Gray et al. rejection-free approximation. *)
module Zipf : sig
  type rng := t
  type t

  val create : n:int -> theta:float -> t
  (** The distribution's constants, an O(n) sum computed once here.
      @raise Invalid_argument if [n <= 0] or [theta < 0.0 || theta >= 1.0]. *)

  val draw : t -> rng -> int
  (** One draw; allocates nothing. *)
end
