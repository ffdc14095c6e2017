(** End-of-run metrics for a CHARM (or baseline) execution. *)

open Chipsim

type access_breakdown = {
  l2_hits : int;
  local_chiplet : int;  (** local L3 slice hits *)
  remote_chiplet : int;  (** fills from another chiplet, same socket *)
  remote_numa : int;  (** fills from the other socket *)
  dram : int;
  invalidations : int;
}

type report = {
  makespan_ns : float;
  accesses : access_breakdown;
  tasks_executed : int;
  tasks_stolen : int;
  migrations : int;
  context_switches : int;
  dram_bytes_per_node : int array;
  avg_bandwidth_gbps : float;
      (** total DRAM bytes / makespan, in GB/s of virtual time *)
  energy_uj : float;
      (** total access energy charged by the per-kind energy table
          ({!Chipsim.Machine.total_energy_pj}), in microjoules —
          memory-access energy only, so PR-8 figures stay identical
          whether per-quantum charging is on or off *)
  compute_energy_uj : float;
      (** total per-quantum compute energy
          ({!Chipsim.Machine.total_compute_energy_pj}), in microjoules;
          0 unless {!Sched.set_energy} enabled charging.  The machine's
          whole energy story is [energy_uj +. compute_energy_uj], which
          {!pp} prints alongside both parts *)
}

val collect : Machine.t -> makespan_ns:float -> report

val sim_events : Machine.t -> int
(** Simulated events the machine has retired: memory accesses charged
    through the model plus task quanta (context switches), steals and
    migrations.  Deterministic for a given run; the numerator of every
    events/sec figure. *)

val pp : Format.formatter -> report -> unit
