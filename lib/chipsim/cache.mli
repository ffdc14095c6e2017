(** Set-associative LRU cache model over cache-line identifiers.

    The model tracks only line {e presence}; data values live in ordinary
    OCaml arrays owned by the workloads.  A line identifier is the simulated
    byte address divided by the line size; it must be non-negative and
    below [2^(62 - b)], where [b] is the number of bits a way index takes
    (4 for 16 ways). *)

type t

val create : ?ways:int -> size_bytes:int -> line_bytes:int -> unit -> t
(** [create ~size_bytes ~line_bytes ()] rounds the number of sets down to a
    power of two.  @raise Invalid_argument if the geometry is degenerate
    or [ways] exceeds 62. *)

val hit : int
(** Sentinel (-2) returned by {!access} on a hit. *)

val access : t -> int -> int
(** [access t line] looks up [line], inserting it (LRU replacement) on miss
    and refreshing recency on hit.  Returns {!hit}, [-1] on a miss that
    filled an empty way (nothing evicted), or the evicted line id ([>= 0])
    when the chosen set was full.  The result is an int sentinel rather
    than a variant so the per-access hot path allocates nothing. *)

val probe : t -> int -> bool
(** Presence test without any state change. *)

val invalidate : t -> int -> bool
(** Remove a line if present; returns whether it was present. *)

val ways : t -> int

val effective_ways : t -> int
(** Ways currently enabled (= [ways] unless degraded). *)

val set_effective_ways : ?on_drop:(int -> unit) -> t -> int -> unit
(** Degrade (or restore) the cache to the given way count, clamped to
    [\[1, ways\]].  Shrinking drops the lines held in the disabled ways,
    calling [on_drop] with each one; growing re-enables empty ways.  Models
    runtime L3 way-partitioning faults. *)

val iter : t -> (int -> unit) -> unit
(** Calls the function on every valid line (O(sets + lines); for
    invariant checks). *)
