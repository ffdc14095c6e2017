open Chipsim
module Sched = Engine.Sched

(* Detection parameters.  The monitor is a heuristic consumer of the same
   PMU deltas the profiler reads; the constants trade detection latency
   against false positives under ordinary contention noise. *)
let alpha = 0.3  (* fast EWMA smoothing for per-chiplet ns/access *)
let alpha_slow = 0.05  (* slow EWMA: the chiplet's own healthy baseline *)

(* A chiplet is flagged only when BOTH hold for [strike_limit] consecutive
   samples: its fast EWMA jumped [jump_ratio] above its own slow baseline
   (faults are step changes; static workload heterogeneity is not) AND it
   is [sick_ratio] above the cross-chiplet median (so a machine-wide phase
   change does not flag everyone).  Either test alone is too noisy: under
   a mixed tenant load the healthy cross-chiplet spread of ns/access
   reaches ~2.5x.  The EWMA path only has to catch *silent* degradation —
   link / L3 / bandwidth faults multiply per-access latency by 3x and
   more — because DVFS and hotplug arrive through the instant OS-visible
   path below.  The baseline freezes while sick, so recovery is judged
   against the pre-fault level; the cost is that very gradual creep gets
   absorbed as the new normal. *)
let jump_ratio = 2.0  (* fast EWMA vs own frozen baseline *)
let sick_ratio = 1.6  (* fast EWMA vs cross-chiplet median *)
let recover_ratio = 1.3  (* back within this of baseline counts healthy *)
let strike_limit = 4  (* consecutive over-ratio samples before flagging *)
let recovery_samples = 8  (* consecutive healthy samples before unflagging *)
let min_accesses = 16  (* PMU delta below this is noise; keep accumulating *)
let min_samples = 4  (* per-chiplet EWMA updates before it can be judged *)

type event = { chiplet : int; sick : bool; at_ns : float }

type chiplet_state = {
  mutable ewma : float;
  mutable baseline : float;  (* slow EWMA, frozen while sick *)
  mutable samples : int;
  mutable strikes : int;
  mutable healthy_streak : int;
  mutable sick : bool;
}

type worker_state = {
  mutable last_core : int;
  mutable last_mem_ns : float;
  mutable last_accesses : int;
}

type t = {
  machine : Machine.t;
  chiplets : chiplet_state array;
  workers : worker_state array;
  mutable mods_generation : int;
  mutable events : event list;  (* newest first *)
  sorted : float array;  (* {!median_ewma}'s sort buffer, one slot per chiplet *)
}

let create machine ~n_workers =
  if n_workers <= 0 then
    invalid_arg "Health_monitor.create: n_workers must be positive";
  let topo = Machine.topology machine in
  {
    machine;
    chiplets =
      Array.init (Topology.num_chiplets topo) (fun _ ->
          {
            ewma = 0.0;
            baseline = 0.0;
            samples = 0;
            strikes = 0;
            healthy_streak = 0;
            sick = false;
          });
    workers =
      Array.init n_workers (fun _ ->
          { last_core = -1; last_mem_ns = 0.0; last_accesses = 0 });
    mods_generation = -1;
    events = [];
    sorted = Array.make (Topology.num_chiplets topo) 0.0;
  }

let sick t ~chiplet = t.chiplets.(chiplet).sick

let sick_chiplets t =
  let acc = ref [] in
  for c = Array.length t.chiplets - 1 downto 0 do
    if t.chiplets.(c).sick then acc := c :: !acc
  done;
  !acc

let events t = List.rev t.events

let counter_series t =
  let acc = ref [] in
  for c = Array.length t.chiplets - 1 downto 0 do
    let st = t.chiplets.(c) in
    if st.samples > 0 || st.sick then
      acc :=
        (Printf.sprintf "chiplet%d_ns_per_access" c, st.ewma)
        :: (Printf.sprintf "chiplet%d_sick" c, if st.sick then 1.0 else 0.0)
        :: !acc
  done;
  !acc

(* A flag transition, recorded into the scheduler's trace when one is
   attached: the instant, then the per-chiplet counter track. *)
let flag t sched ~chiplet ~sick ~at_ns =
  let st = t.chiplets.(chiplet) in
  if st.sick <> sick then begin
    st.sick <- sick;
    st.strikes <- 0;
    st.healthy_streak <- 0;
    t.events <- { chiplet; sick; at_ns } :: t.events;
    match Sched.trace sched with
    | Some tr ->
        Engine.Trace.instant tr
          ~name:
            (Printf.sprintf "health: chiplet %d %s" chiplet
               (if sick then "sick" else "recovered"))
          ~at_ns;
        Engine.Trace.counter tr ~name:"health" ~at_ns ~series:(counter_series t)
    | None -> ()
  end

(* Total data accesses a core has performed, per the PMU. *)
let accesses_of_core t ~core =
  let pmu = Machine.pmu t.machine in
  Pmu.read pmu ~core Pmu.L2_hit
  + Pmu.read pmu ~core Pmu.L3_local_hit
  + Pmu.read pmu ~core Pmu.Fill_remote_chiplet
  + Pmu.read pmu ~core Pmu.Fill_remote_numa
  + Pmu.read pmu ~core Pmu.Dram_local
  + Pmu.read pmu ~core Pmu.Dram_remote

(* DVFS and hotplug are OS-visible on real machines (sysfs); treating
   them as instantly known keeps the EWMA path for what is genuinely
   silent (latency degradation).  Re-derived only when the modifier
   generation moved.  The clock is passed as its cell and read only to
   stamp a flag, so a call that flags nothing boxes no float. *)
let sync_os_visible t sched ~clock =
  let mods = Machine.modifiers t.machine in
  let gen = Modifiers.generation mods in
  if gen <> t.mods_generation then begin
    t.mods_generation <- gen;
    let topo = Machine.topology t.machine in
    let cpc = topo.Topology.cores_per_chiplet in
    Array.iteri
      (fun chiplet st ->
        let impaired =
          Modifiers.chiplet_os_impaired mods ~chiplet ~cores_per_chiplet:cpc
        in
        if impaired && not st.sick then
          flag t sched ~chiplet ~sick:true ~at_ns:clock.(0))
      t.chiplets
  end

(* Median of the fast EWMAs of chiplets with enough samples, [nan] with
   fewer than two.  An insertion sort into the monitor's own buffer: the
   judge runs on every sample, and this allocates nothing. *)
let[@inline] median_ewma t =
  let buf = t.sorted in
  let n = ref 0 in
  for c = 0 to Array.length t.chiplets - 1 do
    let st = t.chiplets.(c) in
    if st.samples >= min_samples then begin
      let v = st.ewma in
      let j = ref !n in
      while !j > 0 && buf.(!j - 1) > v do
        buf.(!j) <- buf.(!j - 1);
        decr j
      done;
      buf.(!j) <- v;
      incr n
    end
  done;
  if !n < 2 then nan else buf.(!n / 2)

let judge t sched ~chiplet ~clock =
  let st = t.chiplets.(chiplet) in
  if st.samples >= min_samples && st.baseline > 0.0 then
    if st.sick then begin
      (* sticky: judged against the frozen pre-fault baseline, and the
         flag only clears after a run of healthy samples, or the gang
         would bounce back and forth *)
      if st.ewma <= recover_ratio *. st.baseline then begin
        st.healthy_streak <- st.healthy_streak + 1;
        if
          st.healthy_streak >= recovery_samples
          && not
               (Modifiers.chiplet_impaired
                  (Machine.modifiers t.machine)
                  ~chiplet
                  ~cores_per_chiplet:
                    (Machine.topology t.machine).Topology.cores_per_chiplet)
        then flag t sched ~chiplet ~sick:false ~at_ns:clock.(0)
      end
      else st.healthy_streak <- 0
    end
    else begin
      let jumped = st.ewma > jump_ratio *. st.baseline in
      let outlier =
        let med = median_ewma t in
        (* nan (too few peers to compare): trust the jump test *)
        if med > 0.0 then st.ewma > sick_ratio *. med else true
      in
      if jumped && outlier then begin
        st.strikes <- st.strikes + 1;
        if st.strikes >= strike_limit then
          flag t sched ~chiplet ~sick:true ~at_ns:clock.(0)
      end
      else st.strikes <- 0
    end

let observe t sched ~worker =
  let clock = Sched.worker_clock_cell sched worker in
  sync_os_visible t sched ~clock;
  let core = Sched.worker_core sched worker in
  let ws = t.workers.(worker) in
  let accesses = accesses_of_core t ~core in
  let mem_ns = (Machine.mem_ns_cells t.machine).(core) in
  if ws.last_core <> core then begin
    (* migrated (or first sample): the old baseline refers to another
       core's counters — rebase without producing a sample *)
    ws.last_core <- core;
    ws.last_mem_ns <- mem_ns;
    ws.last_accesses <- accesses
  end
  else begin
    let da = accesses - ws.last_accesses in
    let dmem = mem_ns -. ws.last_mem_ns in
    if da >= min_accesses && dmem > 0.0 then begin
      let ns_per_access = dmem /. float_of_int da in
      let topo = Machine.topology t.machine in
      let chiplet = Topology.chiplet_of_core topo core in
      let st = t.chiplets.(chiplet) in
      st.ewma <-
        (if st.samples = 0 then ns_per_access
         else (alpha *. ns_per_access) +. ((1.0 -. alpha) *. st.ewma));
      if not st.sick then
        st.baseline <-
          (if st.samples = 0 then ns_per_access
           else
             (alpha_slow *. ns_per_access)
             +. ((1.0 -. alpha_slow) *. st.baseline));
      st.samples <- st.samples + 1;
      ws.last_mem_ns <- mem_ns;
      ws.last_accesses <- accesses;
      judge t sched ~chiplet ~clock
    end
  end
