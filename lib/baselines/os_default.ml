open Chipsim

(* CFS periodically rebalances: threads wander to random idle cores,
   destroying cache affinity (what pinning — and CHARM — prevents). *)
let wander sched ~rng ~worker =
  let machine = Engine.Sched.machine sched in
  if Rng.int rng 4 = 0 then begin
    let topo = Machine.topology machine in
    let cores = Topology.num_cores topo in
    let tries = ref 8 in
    let moved = ref false in
    while (not !moved) && !tries > 0 do
      decr tries;
      let target = Rng.int rng cores in
      if Engine.Sched.worker_of_core sched target < 0 then begin
        Engine.Sched.migrate sched ~worker ~core:target;
        moved := true
      end
    done
  end

let spec () =
  {
    Baseline.default_spec with
    Baseline.placement = Baseline.Layouts.socket_round_robin_scatter;
    steal = Baseline.Random_victim;
    tick_interval_ns = 400_000.0;
    on_tick = Some wander;
  }
