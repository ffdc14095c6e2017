(** Registry of runnable systems and evaluation machines.

    One-stop construction of an {!Workloads.Exec_env.t} for any
    (system, machine, worker count) combination used in the paper's
    evaluation.  Every call builds a {e fresh} simulated machine so PMU
    counters and caches start cold, as in the paper's per-run methodology. *)

open Chipsim

type machine_kind =
  | Amd_milan  (** dual-socket EPYC Milan 7713 (the default testbed) *)
  | Amd_milan_1s  (** single-socket Milan (§2.3 microbenchmark) *)
  | Intel_spr  (** dual-socket Xeon Platinum 8488C (§5.3) *)
  | Custom of { name : string; topo : Topology.t }
      (** a data-driven topology, e.g. loaded from a [.topo] file; uses
          the default latency profile *)

type sys =
  | Charm
  | Charm_os_threads  (** CHARM placement but std::async-style tasking *)
  | Ring
  | Dw_native
      (** RING-like NUMA-aware placement with DimmWitted's kernel-thread
          tasking (one thread per task, as its engine creates) *)
  | Shoal
  | Asymsched
  | Sam
  | Os_default
  | Local_cache
  | Distributed_cache

val systems : (string * sys) list
(** Every system by its CLI name, the one [-s] parses. *)

val machines : (string * machine_kind) list
(** The preset machines by their CLI names ("amd", "amd1s", "intel"), the
    ones [-m] parses. *)

val sys_name : sys -> string
(** The system's name in {!systems}. *)

val machine_name : machine_kind -> string
(** A preset's name in {!machines}; a [Custom]'s own name. *)

val topology : machine_kind -> cache_scale:int -> Topology.t
(** [cache_scale] is applied with {!Chipsim.Presets.scale_topology} for
    every kind, including [Custom] — so a preset-as-data file scales
    exactly like its preset-as-code twin. *)

val custom_machine_of_spec : string -> (machine_kind, string) result
(** Build a [Custom] machine from a [--topology] argument: a path to a
    topology file (named after the file), or an inline [';']-separated
    spec (named by a leading [name NAME] directive, else "custom").
    Errors are one line naming what failed. *)

val custom_machine_to_spec : name:string -> Topology.t -> string
(** The inline spec {!custom_machine_of_spec} reads back as the same
    machine and name: {!Topology.to_spec}, led by [name NAME; ] unless the
    name is "custom". *)

type instance = {
  env : Workloads.Exec_env.t;
  machine : Machine.t;
  charm : Charm.Runtime.t option;  (** present when [sys] is CHARM *)
}

val pinned_cores :
  sys -> machine_kind -> cache_scale:int -> n_workers:int -> int array option
(** The core each worker of [sys] is placed on, where no policy moves it
    afterwards: [None] for CHARM (its policy migrates) and for a baseline
    with a periodic tick (a migrating balancer).  A core going offline
    still moves its worker ({!Engine.Sched.create}'s fault replay). *)

val make :
  ?cache_scale:int ->
  ?charm_config:Charm.Config.t ->
  ?faults:Faults.Schedule.t ->
  sys ->
  machine_kind ->
  n_workers:int ->
  unit ->
  instance
(** Build a fresh machine and a scheduler with [sys]'s placement hooks
    that replays [faults] ({!Engine.Sched.create}).
    [env.alloc_shared] places datasets first-touch under CHARM and by the
    spec's [shared_policy] under a baseline.
    @raise Invalid_argument if the machine cannot host [n_workers]. *)

val report : instance -> Engine.Stats.report
(** End-of-run statistics; the makespan is the scheduler's
    ({!Engine.Sched.makespan}). *)
