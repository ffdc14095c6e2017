open Chipsim
module Sched = Engine.Sched

type steal_discipline = Chiplet_first | Numa_first | Random_victim

type t = {
  spec : spec;
  machine : Machine.t;
  sched : Sched.t;
  last_tick : float array;
  trng : Engine.Rng.t;
}

and spec = {
  placement : Topology.t -> n_workers:int -> int -> int;
  shared_policy : Topology.t -> Simmem.policy;
  steal : steal_discipline;
  tick_interval_ns : float;
  on_tick : (t -> worker:int -> unit) option;
  profile_adjust : Latency.profile -> Latency.profile;
  task_model : Engine.Sched.task_model;
}

module Layouts = struct
  let sequential _topo ~n_workers:_ w = w

  let socket_round_robin_scatter topo ~n_workers:_ w =
    let sockets = topo.Topology.sockets in
    let cps = Topology.cores_per_socket topo in
    let cpc = topo.Topology.cores_per_chiplet in
    let chiplets = topo.Topology.chiplets_per_socket in
    let socket = w mod sockets in
    let i = w / sockets in
    let chiplet = i mod chiplets in
    let slot = i / chiplets in
    (socket * cps) + (chiplet * cpc) + slot

  let one_per_chiplet topo ~n_workers:_ w =
    let chiplets = Topology.num_chiplets topo in
    let cpc = topo.Topology.cores_per_chiplet in
    let chiplet = w mod chiplets in
    let slot = w / chiplets in
    (chiplet * cpc) + slot
end

let default_spec =
  {
    placement = Layouts.sequential;
    shared_policy = (fun _ -> Simmem.First_touch);
    steal = Chiplet_first;
    tick_interval_ns = 0.0;
    on_tick = None;
    profile_adjust = (fun p -> p);
    task_model = Engine.Sched.Coroutines { switch_ns = 30.0 };
  }

let numa_first_order t ~thief =
  let topo = Machine.topology t.machine in
  let sched = t.sched in
  let my_socket = Topology.socket_of_core topo (Sched.worker_core sched thief) in
  let others = ref [] in
  for w = Sched.n_workers sched - 1 downto 0 do
    if w <> thief then others := w :: !others
  done;
  let arr = Array.of_list !others in
  let rank w =
    if Topology.socket_of_core topo (Sched.worker_core sched w) = my_socket then 0
    else 1
  in
  Array.sort (fun a b -> compare (rank a, a) (rank b, b)) arr;
  arr

let init spec machine ~n_workers =
  let topo = Machine.topology machine in
  let sched =
    Sched.create ~task_model:spec.task_model machine ~n_workers
      ~placement:(fun w -> spec.placement topo ~n_workers w)
  in
  let t =
    {
      spec;
      machine;
      sched;
      last_tick = Array.make n_workers 0.0;
      trng = Engine.Rng.create 0xba5e;
    }
  in
  let steal_order sched_ ~thief =
    match spec.steal with
    | Chiplet_first ->
        Engine.Sched.no_hooks.Engine.Sched.steal_order sched_ ~thief
    | Numa_first -> numa_first_order t ~thief
    | Random_victim -> Sched.random_steal_order t.trng sched_ ~thief
  in
  let on_quantum_end _sched worker =
    match spec.on_tick with
    | None -> ()
    | Some tick ->
        if spec.tick_interval_ns > 0.0 then begin
          let now = Sched.worker_clock t.sched worker in
          if now -. t.last_tick.(worker) >= spec.tick_interval_ns then begin
            t.last_tick.(worker) <- now;
            tick t ~worker
          end
        end
  in
  Sched.set_hooks sched { Engine.Sched.on_quantum_end; steal_order };
  t

let sched t = t.sched
let machine t = t.machine
let rng t = t.trng
