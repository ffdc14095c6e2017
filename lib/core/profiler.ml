open Chipsim

type counter = Local_hits | Remote_chiplet | Remote_numa | Dram

let counters = 4
let index = function Local_hits -> 0 | Remote_chiplet -> 1 | Remote_numa -> 2 | Dram -> 3

(* Each array holds [counters] slots per worker, [worker * counters +
   index c], so a tick reads and writes ints in place and builds no
   record. *)
type t = {
  machine : Machine.t;
  baselines : int array;  (* counter values at the worker's last reset *)
  deltas : int array;  (* the worker's last [read] *)
  consumed : int array;  (* total deltas the worker's resets consumed *)
}

let create machine ~n_workers =
  if n_workers <= 0 then invalid_arg "Profiler.create: n_workers must be positive";
  let slots () = Array.make (n_workers * counters) 0 in
  { machine; baselines = slots (); deltas = slots (); consumed = slots () }

(* counter [k] of [core], numbered as [index] *)
let raw t ~core k =
  let pmu = Machine.pmu t.machine in
  match k with
  | 0 -> Pmu.read pmu ~core Pmu.L3_local_hit
  | 1 -> Pmu.read pmu ~core Pmu.Fill_remote_chiplet
  | 2 -> Pmu.read pmu ~core Pmu.Fill_remote_numa
  | _ -> Pmu.read pmu ~core Pmu.Dram_local + Pmu.read pmu ~core Pmu.Dram_remote

let read t ~worker ~core =
  let base = worker * counters in
  for k = 0 to counters - 1 do
    t.deltas.(base + k) <- raw t ~core k - t.baselines.(base + k)
  done

let delta t ~worker c = t.deltas.((worker * counters) + index c)

let remote_events t ~worker =
  delta t ~worker Remote_chiplet + delta t ~worker Remote_numa + delta t ~worker Dram

let reset t ~worker ~core =
  let base = worker * counters in
  for k = 0 to counters - 1 do
    let now = raw t ~core k in
    t.consumed.(base + k) <- t.consumed.(base + k) + now - t.baselines.(base + k);
    t.baselines.(base + k) <- now
  done

let cumulative t ~worker c = t.consumed.((worker * counters) + index c)

let rebase t ~worker ~core =
  let base = worker * counters in
  for k = 0 to counters - 1 do
    t.baselines.(base + k) <- raw t ~core k
  done
