(** The comparison systems of paper §5.1 as scheduler hooks.

    Every baseline is expressed as a {!spec}: an initial thread-placement
    function, a shared-memory allocation policy, a steal-victim discipline,
    an optional periodic rebalancing action, and a task model.  {!init}
    installs the spec's hooks on a scheduler over the same simulated
    machine as CHARM, and [Harness.Systems] drives it exactly as it drives
    CHARM, so differences in results come only from policy — how the
    paper's comparisons are constructed. *)

open Chipsim

type steal_discipline =
  | Chiplet_first  (** victims ordered by core distance (CHARM's order) *)
  | Numa_first  (** same socket first, chiplet-blind within it *)
  | Random_victim

type t

type spec = {
  placement : Topology.t -> n_workers:int -> int -> int;
      (** initial core of each worker; must be injective *)
  shared_policy : Topology.t -> Simmem.policy;
      (** how the system places shared datasets *)
  steal : steal_discipline;
  tick_interval_ns : float;  (** 0 disables periodic rebalancing *)
  on_tick : (t -> worker:int -> unit) option;
  profile_adjust : Latency.profile -> Latency.profile;
      (** machine-level latency adjustment (e.g., SHOAL's huge pages) *)
  task_model : Engine.Sched.task_model;
}

val default_spec : spec
(** Sequential placement, first-touch memory, chiplet-first stealing, no
    rebalancing, coroutine tasks. *)

val init : spec -> Machine.t -> n_workers:int -> t
val sched : t -> Engine.Sched.t
val machine : t -> Machine.t
val rng : t -> Engine.Rng.t

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
