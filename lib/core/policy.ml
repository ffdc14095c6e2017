open Chipsim

type stats = {
  ticks : int;
  spreads : int;
  contracts : int;
  migrations : int;
  skipped : int;
  health_migrations : int;
}

type t = {
  config : Config.t;
  machine : Machine.t;
  controller : Controller.t;
  profiler : Profiler.t;
  health : Health_monitor.t;
  power_cap : Power_cap.t option;
      (* only consulted when energy_weight > 0, so capped-but-unweighted
         runs place identically to pre-energy CHARM *)
  n_workers : int;
  spreads : int array;  (* per worker: its Alg. 1 spread_rate *)
  last_check : float array;  (* per worker: clock at its last evaluation *)
  min_spread : int;  (* [Placement.min_valid_spread] of this gang *)
  max_spread : int;  (* [Placement.max_general_spread] of this gang *)
  mutable s_ticks : int;
  mutable s_spreads : int;
  mutable s_contracts : int;
  mutable s_migrations : int;
  mutable s_skipped : int;
  mutable s_health_migrations : int;
}

let create config machine controller profiler health power_cap ~n_workers =
  let topo = Machine.topology machine in
  Config.validate config topo;
  {
    config;
    machine;
    controller;
    profiler;
    health;
    power_cap;
    n_workers;
    spreads = Array.make n_workers config.Config.initial_spread;
    last_check = Array.make n_workers 0.0;
    min_spread = Placement.min_valid_spread topo ~n_workers;
    max_spread = Placement.max_general_spread topo ~n_workers;
    s_ticks = 0;
    s_spreads = 0;
    s_contracts = 0;
    s_migrations = 0;
    s_skipped = 0;
    s_health_migrations = 0;
  }

(* Contraction happens only well below the spread trigger: CHARM
   "preserves the initial task-to-worker-to-core mapping as much as
   possible" and migrates "only when significant inefficiency is
   detected" (paper 4.6) — without this dead band the policy oscillates
   at the capacity boundary and migration churn eats the gains. *)
let hysteresis = 0.25

let spread_rate t ~worker = t.spreads.(worker)
let chiplet_sick t chiplet = Health_monitor.sick t.health ~chiplet

let chiplet_hot t chiplet =
  t.config.Config.energy_weight > 0.0
  && match t.power_cap with None -> false | Some pc -> Power_cap.throttled pc ~chiplet

(* sick and hot chiplets get the same treatment: vetoed as targets, fled
   when occupied — being throttled for power is operationally the same
   signal as being throttled by a fault *)
let chiplet_avoid t chiplet = chiplet_sick t chiplet || chiplet_hot t chiplet

let stats t =
  {
    ticks = t.s_ticks;
    spreads = t.s_spreads;
    contracts = t.s_contracts;
    migrations = t.s_migrations;
    skipped = t.s_skipped;
    health_migrations = t.s_health_migrations;
  }

(* Alg. 2 application: compute the target core and migrate if it is free.
   An occupied target (transient, while neighbours still hold older
   spread_rates) skips the move; the next timer cycle retries. *)
let update_location t sched ~worker ~core =
  let topo = Machine.topology t.machine in
  let target =
    Placement.core_of_worker topo ~spread_rate:t.spreads.(worker)
      ~n_workers:t.n_workers ~worker
  in
  if target < 0 then t.s_skipped <- t.s_skipped + 1
  else if target = core then ()
  else if
    chiplet_avoid t (Topology.chiplet_of_core topo target)
    && not (chiplet_avoid t (Topology.chiplet_of_core topo core))
  then
    (* health/power veto: never move a clean worker onto a sick or
       power-throttled chiplet, even when Alg. 2 nominates it —
       retried once the flag clears *)
    t.s_skipped <- t.s_skipped + 1
  else if Engine.Sched.worker_of_core sched target >= 0 then
    t.s_skipped <- t.s_skipped + 1
  else begin
    Engine.Sched.migrate sched ~worker ~core:target;
    t.s_migrations <- t.s_migrations + 1;
    Profiler.rebase t.profiler ~worker ~core:target
  end

(* A worker stuck on a sick chiplet ignores Alg. 2 and flees to the
   nearest free core on a healthy chiplet.  Alg. 2 keeps nominating cores
   from the contiguous gang footprint, so without this escape hatch the
   gang would sit on the degraded silicon forever. *)
let flee_sick_chiplet t sched ~worker ~core =
  let topo = Machine.topology t.machine in
  if chiplet_avoid t (Topology.chiplet_of_core topo core) then begin
    let cores = Topology.num_cores topo in
    let best = ref (-1) and best_rank = ref max_int and best_speed = ref 0.0 in
    for c = 0 to cores - 1 do
      if
        (not (chiplet_avoid t (Topology.chiplet_of_core topo c)))
        && Engine.Sched.worker_of_core sched c < 0
        && Modifiers.core_online (Machine.modifiers t.machine) c
      then begin
        let r =
          match Latency.classify topo core c with
          | Latency.Same_core -> 0
          | Latency.Same_chiplet -> 1
          | Latency.Same_group -> 2
          | Latency.Same_socket -> 3
          | Latency.Cross_socket -> 4
        in
        (* accelerator-only chiplets are a last resort for fleeing
           general work, ranked past any general-task core *)
        let r =
          if Topology.chiplet_accepts_general topo (Topology.chiplet_of_core topo c) then r
          else r + 8
        in
        let s =
          let speed = Topology.core_speed topo c in
          let w = t.config.Config.energy_weight in
          if w > 0.0 then begin
            (* EDP-aware score: discount a candidate by its kind's energy
               density, so with rising energy_weight the policy trades
               peak speed for efficient silicon (a little core's low
               density can beat a big core's raw speed).  With w = 0 this
               is exactly the PR-8 speed tie-break. *)
            let density =
              (Topology.spec_of_kind topo (Topology.kind_of_core topo c))
                .Topology.energy_pj
            in
            speed /. (1.0 +. (w *. density))
          end
          else speed
        in
        (* equal-distance candidates: prefer the faster kind (strict >, so
           homogeneous machines still pick the lowest-numbered core) *)
        if r < !best_rank || (r = !best_rank && s > !best_speed)
        then begin
          best_rank := r;
          best_speed := s;
          best := c
        end
      end
    done;
    if !best >= 0 then begin
      Engine.Sched.migrate sched ~worker ~core:!best;
      t.s_migrations <- t.s_migrations + 1;
      t.s_health_migrations <- t.s_health_migrations + 1;
      Profiler.rebase t.profiler ~worker ~core:!best
    end
  end

(* Alg. 1's spread step, the one rule both the per-worker policy and the
   centralized arbiter apply: widen at or above the threshold, narrow
   below the hysteresis band, within the spreads Alg. 2 can apply.  It
   returns the new spread and counts the change; inlined, so the float
   arguments stay unboxed. *)
let[@inline] step t ~rate ~threshold spread =
  if rate >= threshold then
    (* general work never spreads onto accelerator-only chiplets while
       the gang fits on the general ones *)
    if spread < t.max_spread then begin
      t.s_spreads <- t.s_spreads + 1;
      spread + 1
    end
    else spread
  else if
    rate < hysteresis *. threshold && spread > t.min_spread
  then begin
    (* Alg. 1 decrements to 1, but values below the Alg. 2 bounds check
       can never be applied; clamping at the smallest valid spread avoids
       a long invalid-retry climb when the rate rises again. *)
    t.s_contracts <- t.s_contracts + 1;
    spread - 1
  end
  else spread

(* Decision records, into the scheduler's trace when one is attached.
   A spread change is stamped at the deciding worker's clock.  A mode
   switch has no single owning worker, so it is stamped at the largest
   worker clock ({!Engine.Sched.max_clock}). *)
let record_spread_change sched ~worker ~old_spread ~new_spread ~at_ns =
  match Engine.Sched.trace sched with
  | Some tr -> Engine.Trace.spread_change tr ~worker ~old_spread ~new_spread ~at_ns
  | None -> ()

(* [Controller.decide] with its mode switch, if it made one, recorded *)
let decide t sched ~degraded ~remote_chiplet ~dram ~remote =
  let from_mode = Controller.mode t.controller in
  let switches = Controller.mode_switches t.controller in
  let decision = Controller.decide t.controller ~degraded ~remote_chiplet ~dram ~remote in
  (if Controller.mode_switches t.controller <> switches then
     match Engine.Sched.trace sched with
     | Some tr ->
         Engine.Trace.mode_switch tr
           ~from_mode:(Config.approach_to_string from_mode)
           ~to_mode:(Config.approach_to_string (Controller.mode t.controller))
           ~at_ns:(Engine.Sched.max_clock sched)
     | None -> ());
  decision

(* One Alg. 1 evaluation.  One that changes no spread and moves no worker
   allocates nothing: the clock is read from the worker's clock cell, the
   profiler and controller write into state they own, and Alg. 2 and the
   core-ownership lookup are int-coded. *)
let evaluate t sched ~worker =
  let now = (Engine.Sched.worker_clock_cell sched worker).(0) in
  let core = Engine.Sched.worker_core sched worker in
  t.s_ticks <- t.s_ticks + 1;
  let timer = t.config.Config.scheduler_timer_ns in
  (* clamp to one full timer period, not 1 ns: a force-tick right after a
     timer tick would otherwise scale the raw counter by ~timer_ns and
     trigger a bogus spread.  With this floor, rate <= raw counter; a
     timer tick has [since >= timer] already. *)
  let since = now -. t.last_check.(worker) in
  let elapsed = if since >= timer then since else timer in
  let prof = t.profiler in
  Profiler.read prof ~worker ~core;
  let counter = Profiler.remote_events prof ~worker in
  let rate = float_of_int counter *. timer /. elapsed in
  let degraded =
    chiplet_sick t (Topology.chiplet_of_core (Machine.topology t.machine) core)
  in
  let decision =
    decide t sched ~degraded
      ~remote_chiplet:(Profiler.delta prof ~worker Profiler.Remote_chiplet)
      ~dram:(Profiler.delta prof ~worker Profiler.Dram) ~remote:counter
  in
  let old_spread = t.spreads.(worker) in
  let spread = step t ~rate ~threshold:decision.Controller.threshold old_spread in
  if spread <> old_spread then begin
    t.spreads.(worker) <- spread;
    record_spread_change sched ~worker ~old_spread ~new_spread:spread ~at_ns:now
  end;
  update_location t sched ~worker ~core:(Engine.Sched.worker_core sched worker);
  flee_sick_chiplet t sched ~worker
    ~core:(Engine.Sched.worker_core sched worker);
  t.last_check.(worker) <- now;
  Profiler.reset prof ~worker ~core:(Engine.Sched.worker_core sched worker)

(* Centralized ablation (DESIGN.md #1): worker 0 is a global arbiter that
   collects every worker's counters (paying a cross-core read per worker —
   the coordination cost the paper's decentralization avoids), averages
   the rate, and pushes one uniform spread_rate to the whole gang. *)
let centralized_evaluate t sched =
  let machine = t.machine in
  let now = (Engine.Sched.worker_clock_cell sched 0).(0) in
  t.s_ticks <- t.s_ticks + 1;
  let arbiter_core = Engine.Sched.worker_core sched 0 in
  let prof = t.profiler in
  let total = ref 0 and remote_chiplet = ref 0 and dram = ref 0 in
  for w = 0 to t.n_workers - 1 do
    let core = Engine.Sched.worker_core sched w in
    Profiler.read prof ~worker:w ~core;
    total := !total + Profiler.remote_events prof ~worker:w;
    remote_chiplet := !remote_chiplet + Profiler.delta prof ~worker:w Profiler.Remote_chiplet;
    dram := !dram + Profiler.delta prof ~worker:w Profiler.Dram;
    (* global data collection: one cross-core transfer per worker *)
    Engine.Sched.charge sched ~worker:0 (Machine.core_to_core_ns machine arbiter_core core)
  done;
  let rate =
    float_of_int !total /. float_of_int t.n_workers
    *. t.config.Config.scheduler_timer_ns /. (now -. t.last_check.(0))
  in
  let decision =
    decide t sched ~degraded:false ~remote_chiplet:!remote_chiplet ~dram:!dram
      ~remote:!total
  in
  let old_global = t.spreads.(0) in
  let global = step t ~rate ~threshold:decision.Controller.threshold old_global in
  if global <> old_global then
    (* one event for the gang: the arbiter decides, everyone follows *)
    record_spread_change sched ~worker:0 ~old_spread:old_global ~new_spread:global
      ~at_ns:now;
  for w = 0 to t.n_workers - 1 do
    t.spreads.(w) <- global;
    update_location t sched ~worker:w ~core:(Engine.Sched.worker_core sched w);
    t.last_check.(w) <- now;
    Profiler.reset prof ~worker:w ~core:(Engine.Sched.worker_core sched w)
  done

let tick t sched ~worker =
  if t.config.Config.profile_while_running then begin
    let timer = t.config.Config.scheduler_timer_ns in
    if t.config.Config.decentralized then begin
      let now = (Engine.Sched.worker_clock_cell sched worker).(0) in
      if now -. t.last_check.(worker) >= timer then evaluate t sched ~worker
    end
    else if worker = 0 then begin
      let now = (Engine.Sched.worker_clock_cell sched 0).(0) in
      if now -. t.last_check.(0) >= timer then centralized_evaluate t sched
    end
  end

let force_tick t sched ~worker = evaluate t sched ~worker
