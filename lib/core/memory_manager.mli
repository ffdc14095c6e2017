(** NUMA-aware memory manager (paper §4.1, component 3).

    Tracks a memory policy per worker — the simulated analogue of
    [set_mempolicy(MPOL_BIND, 1 << numa_node)] in Alg. 2 line 14 — and
    applies it to the worker's allocations.  On a cross-socket migration it
    can re-home the worker's bound regions (pages then migrate lazily on
    next touch), mirroring CHARM's task-completion-time data movement. *)

open Chipsim

type t

val create : Config.t -> Machine.t -> n_workers:int -> t

val bind_worker : t -> worker:int -> node:int -> unit
(** Set the worker's memory policy to bind to [node]. *)

val alloc_shared :
  t -> ?policy:Simmem.policy -> elt_bytes:int -> count:int -> unit ->
  Simmem.region
(** Allocation not owned by any worker (shared datasets). *)

val on_migrate : t -> worker:int -> old_core:int -> new_core:int -> unit
(** Alg. 2 lines 13–14: re-point an {e already-bound} worker's policy to
    the new core's NUMA node and, on a socket change, re-home its owned
    regions.  Never-bound (first-touch) workers are left untouched, and
    the whole step is gated on [Config.rebind_memory_on_migrate]. *)

val set_on_rebind : t -> (worker:int -> node:int -> regions:int -> unit) -> unit
(** Callback invoked after a cross-socket re-home of a worker's regions
    (tracing hook); [regions] is the number of regions re-pointed. *)
