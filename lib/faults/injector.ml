open Chipsim
open Engine

type t = {
  sched : Sched.t;
  events : Schedule.event array;
  mutable next : int;
}

let apply_kind t ~at kind =
  let machine = Sched.machine t.sched in
  let mods = Machine.modifiers machine in
  (match kind with
  | Schedule.Core_off c ->
      Modifiers.set_core_online mods c false;
      Sched.handle_core_offline t.sched ~core:c
  | Schedule.Core_on c ->
      Modifiers.set_core_online mods c true;
      Sched.handle_core_online t.sched ~core:c ~at
  | Schedule.Dvfs { core; speed } -> Modifiers.set_core_speed mods core speed
  | Schedule.L3_ways { chiplet; ways } -> Machine.set_l3_ways machine ~chiplet ~ways
  | Schedule.Link { chiplet; mult } -> Modifiers.set_link_mult mods chiplet mult
  | Schedule.Xsocket m -> Modifiers.set_xsocket_mult mods m
  | Schedule.Membw { node; factor } ->
      Machine.set_mem_capacity_factor machine ~node factor
  | Schedule.Corruption { seed } -> Modifiers.arm_corruption mods ~seed);
  match Sched.trace t.sched with
  | Some tr ->
      Trace.fault tr ~desc:(Schedule.describe kind) ~at_ns:at
  | None -> ()

let pump t frontier =
  while
    t.next < Array.length t.events && t.events.(t.next).Schedule.at_ns <= frontier
  do
    let ev = t.events.(t.next) in
    (* stamp the event at its scheduled instant, not the frontier: the
       trace then shows the fault where the schedule put it, and replays
       are independent of quantum granularity *)
    apply_kind t ~at:ev.Schedule.at_ns ev.Schedule.kind;
    t.next <- t.next + 1
  done

let attach sched schedule =
  let events = Array.of_list (Schedule.sort schedule) in
  let t = { sched; events; next = 0 } in
  Sched.set_on_advance sched (Some (pump t));
  t

let drain t ~now =
  (* force-apply everything due by [now] (e.g. before a final report when
     the run ended between quantum boundaries) *)
  pump t now
