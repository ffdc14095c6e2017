(** Alg. 2 — UpdateLocation: translate a worker's [spread_rate] into a
    deterministic, collision-free core assignment.

    The worker gang is sliced into per-socket sub-gangs by id (paper §4.6:
    fill one socket's chiplets before touching the next), and Alg. 2 maps
    each sub-gang across the socket's chiplets: [spread_rate = k] gives
    every chiplet at most [cores_per_chiplet / k] consecutive ids, so a
    larger [k] spreads the same workers over more chiplets (more aggregate
    L3, longer inter-worker distances).  The paper's bounds-check example —
    64 workers, 8-core chiplets, spread 1 invalid — holds. *)

open Chipsim

val core_of_worker :
  Topology.t -> spread_rate:int -> n_workers:int -> worker:int -> int option
(** The Alg. 2 core for [worker], or [None] when the bounds check fails
    (spread out of range, or too few dedicated cores for the gang at this
    spread).  Guaranteed injective over [worker] for a fixed valid
    configuration.

    On a heterogeneous topology the socket's chiplets are visited
    general-task chiplets first, each band in descending kind-speed
    order, so a gang fills big-core chiplets before little ones and only
    reaches accelerator-only chiplets ([general_tasks = false]) when it
    cannot fit elsewhere; the order is stable, so homogeneous topologies
    are unaffected. *)

val valid_spread : Topology.t -> spread_rate:int -> n_workers:int -> bool
(** The Alg. 2 line-2 sanity check. *)

val min_valid_spread : Topology.t -> n_workers:int -> int
(** Smallest spread_rate that passes the bounds check (>= 1). *)

val max_general_spread : Topology.t -> n_workers:int -> int
(** Largest spread_rate that keeps a general gang off accelerator-only
    chiplets ([Topology.kind_spec.general_tasks = false]); equals
    [chiplets_per_socket] when the gang cannot fit on general chiplets
    alone (or the machine has none). *)

val chiplet_speed_order : Topology.t -> socket:int -> int array
(** The socket's local chiplet indices in visit order: general-task
    chiplets first, each band by descending kind speed, stable by index.
    Identity on homogeneous sockets.  Exposed as the placement hint
    other mappers (the task-graph mapper) fall back to. *)

val gang :
  Topology.t -> spread_rate:int -> n_workers:int -> int array option
(** All workers' cores at once ([gang.(w)] = core of worker [w]). *)
