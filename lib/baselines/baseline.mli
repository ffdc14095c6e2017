(** The comparison systems of paper §5.1 as scheduler hooks.

    Every baseline is expressed as a {!spec}: an initial thread-placement
    function, a shared-memory allocation policy, a steal-victim discipline,
    an optional periodic rebalancing action, and a task model.  {!init}
    creates a scheduler with the spec's hooks over the same simulated
    machine as CHARM, and [Harness.Systems] drives it exactly as it drives
    CHARM, so differences in results come only from policy — how the
    paper's comparisons are constructed. *)

open Chipsim

type steal_discipline =
  | Chiplet_first  (** victims ordered by core distance (CHARM's order) *)
  | Numa_first  (** same socket first, chiplet-blind within it *)
  | Random_victim

type spec = {
  placement : Topology.t -> n_workers:int -> int -> int;
      (** initial core of each worker; must be injective *)
  shared_policy : Simmem.policy;
      (** how the system places shared datasets *)
  steal : steal_discipline;
  tick_interval_ns : float;  (** 0 disables periodic rebalancing *)
  on_tick : (Engine.Sched.t -> rng:Rng.t -> worker:int -> unit) option;
      (** the rebalancing action, run from a worker's quantum-end hook at
          most once per [tick_interval_ns] of its clock; [rng] is the
          baseline's own stream *)
  profile_adjust : Latency.profile -> Latency.profile;
      (** machine-level latency adjustment (e.g., SHOAL's huge pages) *)
  task_model : Engine.Sched.task_model;
}

val default_spec : spec
(** Sequential placement, first-touch memory, chiplet-first stealing, no
    rebalancing, coroutine tasks. *)

val init :
  ?faults:Faults.Schedule.t ->
  spec ->
  Machine.t ->
  n_workers:int ->
  Engine.Sched.t
(** A scheduler over [machine] with the spec's placement, task model and
    hooks, replaying [faults] ({!Engine.Sched.create}). *)

val random_free_core : Engine.Sched.t -> rng:Rng.t -> socket:int -> int option
(** A chiplet-blind core pick: a core on [socket] that hosts no worker,
    drawn uniformly with [rng] (one draw); [None] when the socket has
    none.  SAM and AsymSched migrate workers with it. *)

(** Placement building blocks shared by the concrete baselines. *)
module Layouts : sig
  val sequential : Topology.t -> n_workers:int -> int -> int
  (** worker [w] -> core [w] (fills chiplet 0, then 1, ...). *)

  val socket_round_robin_scatter : Topology.t -> n_workers:int -> int -> int
  (** Alternate sockets; within a socket, scatter across chiplets
      round-robin (Linux-CFS-like spreading). *)

  val one_per_chiplet : Topology.t -> n_workers:int -> int -> int
  (** Round-robin across all chiplets (maximal spread). *)
end
