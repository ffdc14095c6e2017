(** The CHARM runtime: the placement hooks behind the paper's §4.6
    interface.

    {!init} places the gang with Alg. 2 and installs CHARM's hooks on a
    fresh scheduler: every worker runs the decentralized Alg. 1 policy at
    each quantum end and migrates itself with Alg. 2.  Building a machine,
    allocating shared data, running work and reporting live in
    [Harness.Systems], which drives CHARM and every baseline alike (see
    DESIGN.md for the mapping from the paper's API).  The paper's NUMA
    memory policy ([set_mempolicy] on migration) is outside the model:
    datasets keep the placement they were allocated with. *)

open Chipsim

type t

val init :
  ?config:Config.t ->
  ?task_model:Engine.Sched.task_model ->
  Machine.t ->
  n_workers:int ->
  t
(** Create a runtime with [n_workers] worker threads placed by Alg. 2 at
    the initial spread rate (clamped up to the smallest valid spread).
    @raise Invalid_argument if the machine cannot host the gang. *)

val sched : t -> Engine.Sched.t
val policy : t -> Policy.t
val profiler : t -> Profiler.t

val power_cap : t -> Power_cap.t option
(** The power-cap controller, present iff [Config.power_cap_mw > 0].  It
    ticks at every quantum end (before the profiler/policy hooks), sheds
    DVFS on the hottest chiplet while the windowed power estimate exceeds
    the cap, and — when [Config.energy_weight > 0] — serves as the
    policy's hot-chiplet oracle. *)

val health : t -> Health_monitor.t
(** The degradation detector.  It is fed automatically at every quantum
    end (before the policy tick) and wired into the policy as its
    sick-chiplet oracle; under fault injection the gang flees flagged
    chiplets and admission control can shrink capacity. *)

val attach_trace : t -> Engine.Trace.t -> unit
(** Wire a trace sink through every layer: the scheduler (quantum, steal,
    park, migration events), the policy (spread changes), the controller
    (adaptive mode switches) and the health monitor (sick/recovered
    instants plus a per-chiplet ns/access counter track).  Call once,
    before running work. *)
