open Chipsim
module Sched = Engine.Sched

type t = {
  sched : Sched.t;
  profiler : Profiler.t;
  policy : Policy.t;
  health : Health_monitor.t;
  power_cap : Power_cap.t option;
}

(* simulated cost of one profiling check, charged to the checking worker *)
let profiler_overhead_ns = 40.0

let init ?(config = Config.default) ?task_model ?faults machine ~n_workers =
  let topo = Machine.topology machine in
  Config.validate config topo;
  if n_workers > Topology.num_cores topo then
    invalid_arg "Runtime.init: more workers than physical cores";
  let spread0 =
    let s = config.Config.initial_spread in
    if Placement.valid_spread topo ~spread_rate:s ~n_workers then s
    else Placement.min_valid_spread topo ~n_workers
  in
  let placement w =
    let core = Placement.core_of_worker topo ~spread_rate:spread0 ~n_workers ~worker:w in
    if core < 0 then invalid_arg "Runtime.init: no valid placement for the gang";
    core
  in
  let profiler = Profiler.create machine ~n_workers in
  let controller = Controller.create config in
  let config = { config with Config.initial_spread = spread0 } in
  let health = Health_monitor.create machine ~n_workers in
  let power_cap =
    if config.Config.power_cap_mw > 0.0 then
      Some
        (Power_cap.create machine ~cap_mw:config.Config.power_cap_mw
           ~sample_ns:config.Config.scheduler_timer_ns
           ~window_ns:(10.0 *. config.Config.scheduler_timer_ns))
    else None
  in
  let policy = Policy.create config machine controller profiler health power_cap ~n_workers in
  let hooks =
    {
      Sched.on_quantum_end =
        (fun sched worker ->
          (* the power controller samples and actuates on its own virtual
             cadence, independent of the profiler switch: a cap must hold
             even in profiling-off ablations *)
          (match power_cap with
          | Some pc ->
              let action =
                Power_cap.tick_cell pc (Sched.worker_clock_cell sched worker)
              in
              (match (action, Sched.trace sched) with
              | Power_cap.Idle, _ | _, None -> ()
              | action, Some tr ->
                  let desc =
                    match action with
                    | Power_cap.Shed ch ->
                        Printf.sprintf "power-cap: shed chiplet %d to %.2fx \
                                        (%.0f mW over %g mW cap)"
                          ch (Power_cap.level pc ~chiplet:ch)
                          (Power_cap.power_mw pc) (Power_cap.cap_mw pc)
                    | Power_cap.Release ch ->
                        Printf.sprintf "power-cap: released chiplet %d to %.2fx"
                          ch (Power_cap.level pc ~chiplet:ch)
                    | Power_cap.Idle -> assert false
                  in
                  Engine.Trace.instant tr ~name:desc
                    ~at_ns:(Sched.worker_clock sched worker))
          | None -> ());
          if config.Config.profile_while_running then begin
            Sched.charge sched ~worker profiler_overhead_ns;
            (* health first: the policy tick right after should already
               see a freshly flagged chiplet *)
            Health_monitor.observe health sched ~worker;
            Policy.tick policy sched ~worker
          end);
      steal_order =
        (if config.Config.chiplet_first_steal then Sched.no_hooks.Sched.steal_order
         else Sched.random_steal_order (Rng.create 0x51ea1));
    }
  in
  let sched = Sched.create ?task_model ~hooks ?faults machine ~n_workers ~placement in
  (* any energy feature — a cap or EDP-weighted placement — needs the
     per-quantum compute meters running; plain runs leave them off so the
     energy-free baselines stay bit-identical *)
  if config.Config.power_cap_mw > 0.0 || config.Config.energy_weight > 0.0 then
    Sched.set_energy sched true;
  { sched; profiler; policy; health; power_cap }

let sched t = t.sched
let attach_trace t tr = Sched.set_trace t.sched (Some tr)

let policy t = t.policy
let power_cap t = t.power_cap
let profiler t = t.profiler
let health t = t.health
