open Chipsim
module Sched = Engine.Sched

let imbalance_factor = 1.4

let tick sched ~rng ~worker =
  let machine = Sched.machine sched in
  let topo = Machine.topology machine in
  if topo.Topology.sockets > 1 then begin
    let core = Sched.worker_core sched worker in
    let my_node = Topology.socket_of_core topo core in
    let now = Sched.worker_clock sched worker in
    let my_load = Machine.dram_load_ratio machine ~node:my_node ~now_ns:now in
    (* find the least-loaded other node *)
    let best_node = ref my_node and best_load = ref my_load in
    for node = 0 to topo.Topology.sockets - 1 do
      if node <> my_node then begin
        let load = Machine.dram_load_ratio machine ~node ~now_ns:now in
        if load < !best_load then begin
          best_load := load;
          best_node := node
        end
      end
    done;
    if !best_node <> my_node && my_load > imbalance_factor *. Float.max !best_load 0.05
    then
      match Baseline.random_free_core sched ~rng ~socket:!best_node with
      | Some target -> Sched.migrate sched ~worker ~core:target
      | None -> ()
  end

let spec () =
  {
    Baseline.default_spec with
    Baseline.placement = Baseline.Layouts.socket_round_robin_scatter;
    steal = Baseline.Numa_first;
    tick_interval_ns = 1_000_000.0;
    on_tick = Some tick;
  }
