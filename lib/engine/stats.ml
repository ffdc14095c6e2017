open Chipsim

type access_breakdown = {
  l2_hits : int;
  local_chiplet : int;
  remote_chiplet : int;
  remote_numa : int;
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
  energy_uj : float;
  compute_energy_uj : float;
}

let collect machine ~makespan_ns =
  let pmu = Machine.pmu machine in
  let topo = Machine.topology machine in
  let dram_bytes =
    Array.init topo.Topology.sockets (fun node ->
        Machine.dram_bytes_served machine ~node)
  in
  let total_bytes = Array.fold_left ( + ) 0 dram_bytes in
  {
    makespan_ns;
    accesses =
      {
        l2_hits = Pmu.total pmu Pmu.L2_hit;
        local_chiplet = Pmu.total pmu Pmu.L3_local_hit;
        remote_chiplet = Pmu.total pmu Pmu.Fill_remote_chiplet;
        remote_numa = Pmu.total pmu Pmu.Fill_remote_numa;
        dram = Pmu.total pmu Pmu.Dram_local + Pmu.total pmu Pmu.Dram_remote;
        invalidations = Pmu.total pmu Pmu.Coherence_invalidation;
      };
    tasks_executed = Pmu.total pmu Pmu.Task_executed;
    tasks_stolen = Pmu.total pmu Pmu.Task_stolen;
    migrations = Pmu.total pmu Pmu.Migration;
    context_switches = Pmu.total pmu Pmu.Context_switch;
    dram_bytes_per_node = dram_bytes;
    avg_bandwidth_gbps =
      (if makespan_ns > 0.0 then float_of_int total_bytes /. makespan_ns else 0.0);
    energy_uj = Machine.total_energy_pj machine /. 1e6;
    compute_energy_uj = Machine.total_compute_energy_pj machine /. 1e6;
  }

let sim_events machine =
  let pmu = Machine.pmu machine in
  Machine.accesses machine
  + Pmu.total pmu Pmu.Context_switch
  + Pmu.total pmu Pmu.Task_stolen
  + Pmu.total pmu Pmu.Migration

let pp ppf r =
  Format.fprintf ppf
    "@[<v>makespan: %.0f ns@ l2=%d local=%d remote-chiplet=%d remote-numa=%d \
     dram=%d inval=%d@ tasks=%d stolen=%d migrations=%d switches=%d@ \
     bandwidth=%.2f GB/s energy=%.4g uJ (mem) + %.4g uJ (compute) = %.4g uJ@]"
    r.makespan_ns r.accesses.l2_hits r.accesses.local_chiplet
    r.accesses.remote_chiplet r.accesses.remote_numa r.accesses.dram
    r.accesses.invalidations r.tasks_executed r.tasks_stolen r.migrations
    r.context_switches r.avg_bandwidth_gbps r.energy_uj r.compute_energy_uj
    (r.energy_uj +. r.compute_energy_uj)
