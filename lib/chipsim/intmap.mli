(** Open-addressing [int -> int] hash map (linear probing, power-of-two
    capacity).  Purpose-built for the simulator's per-access hot paths
    (coherence directory, page map): every operation except growth is
    allocation-free, and lookups cost one multiplicative hash plus a short
    probe run instead of a C hashing call and bucket-list chasing.

    Keys must be non-negative. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is rounded up to a power of two (default 16). *)

val get : t -> int -> absent:int -> int
(** [get t k ~absent] is the value bound to [k], or [absent] if unbound. *)

val set : t -> int -> int -> unit
(** Bind [k] to [v], replacing any previous binding.
    @raise Invalid_argument on a negative key. *)

val remove : t -> int -> unit
(** Unbind [k] (no-op if unbound). *)

val iter : t -> (int -> int -> unit) -> unit
(** Apply to every binding, in unspecified order. *)
