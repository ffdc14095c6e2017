type event =
  | L2_hit
  | L3_local_hit
  | Fill_remote_chiplet
  | Fill_remote_numa
  | Dram_local
  | Dram_remote
  | Coherence_invalidation
  | Task_executed
  | Task_stolen
  | Migration
  | Context_switch

let num_events = 11

let event_index = function
  | L2_hit -> 0
  | L3_local_hit -> 1
  | Fill_remote_chiplet -> 2
  | Fill_remote_numa -> 3
  | Dram_local -> 4
  | Dram_remote -> 5
  | Coherence_invalidation -> 6
  | Task_executed -> 7
  | Task_stolen -> 8
  | Migration -> 9
  | Context_switch -> 10

type t = { cores : int; counters : int array }

let create ~cores =
  if cores <= 0 then invalid_arg "Pmu.create: cores must be positive";
  { cores; counters = Array.make (cores * num_events) 0 }

let counters t = t.counters

let slot t core ev =
  if core < 0 || core >= t.cores then invalid_arg "Pmu: core out of range";
  (core * num_events) + event_index ev

let incr t ~core ev =
  let i = slot t core ev in
  t.counters.(i) <- t.counters.(i) + 1

let add t ~core ev n =
  let i = slot t core ev in
  t.counters.(i) <- t.counters.(i) + n

let read t ~core ev = t.counters.(slot t core ev)

let total t ev =
  let idx = event_index ev in
  let acc = ref 0 in
  for core = 0 to t.cores - 1 do
    acc := !acc + t.counters.((core * num_events) + idx)
  done;
  !acc

type snapshot = { snap_cores : int; values : int array }

let snapshot t = { snap_cores = t.cores; values = Array.copy t.counters }

let delta_total ~before ~after ev =
  let idx = event_index ev in
  let acc = ref 0 in
  for core = 0 to before.snap_cores - 1 do
    acc := !acc + after.values.((core * num_events) + idx)
           - before.values.((core * num_events) + idx)
  done;
  !acc

type fill_classes = {
  fc_local : int;
  fc_remote_chiplet : int;
  fc_remote_numa : int;
  fc_dram : int;
}

let zero_fill_classes =
  { fc_local = 0; fc_remote_chiplet = 0; fc_remote_numa = 0; fc_dram = 0 }

let fill_classes t =
  {
    fc_local = total t L3_local_hit;
    fc_remote_chiplet = total t Fill_remote_chiplet;
    fc_remote_numa = total t Fill_remote_numa;
    fc_dram = total t Dram_local + total t Dram_remote;
  }

let fill_classes_delta ~before ~after =
  {
    fc_local = after.fc_local - before.fc_local;
    fc_remote_chiplet = after.fc_remote_chiplet - before.fc_remote_chiplet;
    fc_remote_numa = after.fc_remote_numa - before.fc_remote_numa;
    fc_dram = after.fc_dram - before.fc_dram;
  }
