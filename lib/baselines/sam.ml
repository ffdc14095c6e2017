open Chipsim
module Sched = Engine.Sched

let remote_fill_threshold = 200

let remote_numa_fills machine ~core =
  Pmu.read (Machine.pmu machine) ~core Pmu.Fill_remote_numa
  + Pmu.read (Machine.pmu machine) ~core Pmu.Dram_remote

(* strict majority: SAM consolidates sharers only when one socket already
   clearly dominates; a balanced gang stays balanced *)
let majority_socket sched ~current =
  let topo = Machine.topology (Sched.machine sched) in
  let counts = Array.make topo.Topology.sockets 0 in
  for w = 0 to Sched.n_workers sched - 1 do
    let s = Topology.socket_of_core topo (Sched.worker_core sched w) in
    counts.(s) <- counts.(s) + 1
  done;
  let best = ref 0 in
  Array.iteri (fun i c -> if c > counts.(!best) then best := i) counts;
  if 10 * counts.(!best) >= 6 * Sched.n_workers sched then !best else current

let tick ~confused ~baselines sched ~rng ~worker =
  let machine = Sched.machine sched in
  let topo = Machine.topology machine in
  let core = Sched.worker_core sched worker in
  let fills = remote_numa_fills machine ~core in
  let base = Option.value ~default:0 (Hashtbl.find_opt baselines worker) in
  Hashtbl.replace baselines worker fills;
  let delta = fills - base in
  let my_socket = Topology.socket_of_core topo core in
  let target_socket =
    if confused && Rng.int rng 4 = 0 then
      (* misread PMU signal: migrate somewhere random *)
      Rng.int rng topo.Topology.sockets
    else if delta > remote_fill_threshold then majority_socket sched ~current:my_socket
    else my_socket
  in
  if target_socket <> my_socket then
    match Baseline.random_free_core sched ~rng ~socket:target_socket with
    | Some target -> Sched.migrate sched ~worker ~core:target
    | None -> ()

let spec ?(confused = false) () =
  (* per-instance PMU baselines: fresh for every spec instantiation *)
  let baselines : (int, int) Hashtbl.t = Hashtbl.create 64 in
  {
    Baseline.default_spec with
    Baseline.placement = Baseline.Layouts.socket_round_robin_scatter;
    steal = Baseline.Numa_first;
    tick_interval_ns = 800_000.0;
    on_tick = Some (tick ~confused ~baselines);
  }
