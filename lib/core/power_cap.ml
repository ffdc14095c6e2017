open Chipsim

(* Power is energy over time, and the simulator's energy unit is the
   picojoule over virtual nanoseconds — so 1 pJ/ns is exactly 1 mW and
   every power figure here is in simulated milliwatts, no conversion
   constants anywhere. *)

(* the controller's floats, in an all-float record so updates box nothing *)
type clock = {
  mutable now_ns : float;  (* max clock seen: workers' clocks are not
                              globally ordered, the estimator's timeline
                              must be *)
  mutable last_sample_ns : float;
  mutable power_mw : float;  (* machine-wide windowed power at the last sample *)
  mutable max_power_mw : float;
}

type t = {
  machine : Machine.t;
  cap_mw : float;
  window_ns : float;
  sample_ns : float;
  chiplets : int;
  cores_per_chiplet : int;
  (* the window, a ring of samples oldest first: each stamps every chiplet
     at one instant, into [times.(i)] and [energy.((i * chiplets) + ch)] *)
  times : float array;
  energy : float array;
  mutable oldest : int;
  mutable count : int;
  power : float array;  (* per-chiplet windowed power at the last sample *)
  clock : clock;
  level : float array;  (* per-chiplet DVFS level the controller holds *)
  mutable sheds : int;
  mutable overcap_unshed : int;
      (* ticks where power exceeded the cap with shedding headroom left
         yet the controller did not act — always 0 unless the control
         logic is broken, which is exactly what verify checks *)
}

(* One shed multiplies the hottest chiplet's level by [shed_factor]; the
   floor keeps even a fully shed machine making progress (and bounds how
   much a cap can promise: a workload can exceed any cap with every
   chiplet at the floor).  Releasing only below [release_ratio] x cap
   leaves a dead band in which the controller holds still — the
   hysteresis that prevents actuator flapping on a steady workload. *)
let shed_factor = 0.75
let level_floor = 0.3
let release_ratio = 0.8

let create ?(window_ns = 500_000.0) ?(sample_ns = 50_000.0) machine ~cap_mw =
  if cap_mw <= 0.0 || not (Float.is_finite cap_mw) then
    invalid_arg "Power_cap.create: cap must be positive";
  if window_ns <= 0.0 || sample_ns <= 0.0 then
    invalid_arg "Power_cap.create: window and sample period must be positive";
  let topo = Machine.topology machine in
  let chiplets = Topology.num_chiplets topo in
  let window_ns = Float.max window_ns (2.0 *. sample_ns) in
  (* samples are [sample_ns] apart or more and eviction keeps those inside
     the window, so a push finds at most [window_ns / sample_ns + 1]; one
     slot more absorbs rounding *)
  let slots = int_of_float (window_ns /. sample_ns) + 3 in
  {
    machine;
    cap_mw;
    window_ns;
    sample_ns;
    chiplets;
    cores_per_chiplet = topo.Topology.cores_per_chiplet;
    times = Array.make slots 0.0;
    energy = Array.make (slots * chiplets) 0.0;
    oldest = 0;
    count = 0;
    power = Array.make chiplets 0.0;
    clock = { now_ns = 0.0; last_sample_ns = neg_infinity; power_mw = 0.0; max_power_mw = 0.0 };
    level = Array.make chiplets 1.0;
    sheds = 0;
    overcap_unshed = 0;
  }

let cap_mw t = t.cap_mw

let chiplet_power_mw t ~chiplet =
  if chiplet < 0 || chiplet >= t.chiplets then
    invalid_arg "Power_cap.chiplet_power_mw: chiplet out of range";
  t.power.(chiplet)

let power_mw t = t.clock.power_mw
let max_power_mw t = t.clock.max_power_mw
let sheds t = t.sheds
let level t ~chiplet =
  if chiplet < 0 || chiplet >= t.chiplets then
    invalid_arg "Power_cap.level: chiplet out of range";
  t.level.(chiplet)

let throttled t ~chiplet = level t ~chiplet < 1.0

let apply_level t chiplet =
  let mods = Machine.modifiers t.machine in
  let base = chiplet * t.cores_per_chiplet in
  for c = base to base + t.cores_per_chiplet - 1 do
    Modifiers.set_core_speed mods c t.level.(chiplet)
  done

let hottest_sheddable t =
  let best = ref (-1) and best_p = ref neg_infinity in
  for ch = 0 to t.chiplets - 1 do
    if t.level.(ch) > level_floor && t.power.(ch) > !best_p then begin
      best_p := t.power.(ch);
      best := ch
    end
  done;
  !best

let most_throttled t =
  let best = ref (-1) and best_l = ref 1.0 in
  for ch = 0 to t.chiplets - 1 do
    if t.level.(ch) < !best_l then begin
      best_l := t.level.(ch);
      best := ch
    end
  done;
  !best

(* push every chiplet's meter, evict samples older than the window (but
   keep two), and differentiate each meter from the oldest to the newest *)
let sample t =
  let slots = Array.length t.times and now_ns = t.clock.now_ns in
  if t.count = slots then failwith "Power_cap.sample: window ring overflow";
  let slot = (t.oldest + t.count) mod slots in
  t.times.(slot) <- now_ns;
  Machine.chiplet_energies t.machine t.energy ~pos:(slot * t.chiplets);
  t.count <- t.count + 1;
  while t.count > 2 && t.times.(t.oldest) < now_ns -. t.window_ns do
    t.oldest <- (t.oldest + 1) mod slots;
    t.count <- t.count - 1
  done;
  let o = t.oldest * t.chiplets and n = slot * t.chiplets in
  let dt = now_ns -. t.times.(t.oldest) in
  t.clock.power_mw <- 0.0;
  for ch = 0 to t.chiplets - 1 do
    t.power.(ch) <-
      (if t.count < 2 || dt <= 0.0 then 0.0 else (t.energy.(n + ch) -. t.energy.(o + ch)) /. dt);
    t.clock.power_mw <- t.clock.power_mw +. t.power.(ch)
  done

type action = Idle | Shed of int | Release of int

(* the one body behind both entry points, inlined into each, so the cell
   reader takes the clock without boxing it *)
let[@inline] tick_at t now_ns =
  let c = t.clock in
  if now_ns > c.now_ns then c.now_ns <- now_ns;
  if c.now_ns -. c.last_sample_ns < t.sample_ns then Idle
  else begin
    c.last_sample_ns <- c.now_ns;
    sample t;
    let p = c.power_mw in
    if p > c.max_power_mw then c.max_power_mw <- p;
    let action =
      if p > t.cap_mw then begin
        match hottest_sheddable t with
        | -1 -> Idle  (* every chiplet at the floor: nothing left to shed *)
        | ch ->
            t.level.(ch) <- Float.max level_floor (t.level.(ch) *. shed_factor);
            apply_level t ch;
            t.sheds <- t.sheds + 1;
            Shed ch
      end
      else if p < release_ratio *. t.cap_mw then begin
        match most_throttled t with
        | -1 -> Idle
        | ch ->
            t.level.(ch) <- Float.min 1.0 (t.level.(ch) /. shed_factor);
            apply_level t ch;
            Release ch
      end
      else Idle  (* dead band: hold *)
    in
    (* audit the control law itself: an over-cap tick with shedding
       headroom left must have shed — any other outcome means the logic
       was broken (or tampered with), which verify reports *)
    (match action with
    | Shed _ -> ()
    | Idle | Release _ ->
        if p > t.cap_mw && hottest_sheddable t <> -1 then
          t.overcap_unshed <- t.overcap_unshed + 1);
    action
  end

let tick t ~now_ns = tick_at t now_ns
let tick_cell t cell = tick_at t cell.(0)

let verify t =
  if t.overcap_unshed > 0 then
    Invariant.fail
      "power-cap: %d ticks exceeded the %g mW cap with shedding headroom \
       left but no actuation"
      t.overcap_unshed t.cap_mw;
  (* externally observable contract: if windowed power ever exceeded the
     cap, the controller must have reacted at least once *)
  if t.clock.max_power_mw > t.cap_mw && t.sheds = 0 then
    Invariant.fail
      "power-cap: windowed power peaked at %.1f mW over the %g mW cap but \
       the controller never shed"
      t.clock.max_power_mw t.cap_mw;
  (* the estimate itself must be sane *)
  let p = power_mw t in
  if not (Float.is_finite p) || p < 0.0 then
    Invariant.fail "power-cap: windowed power estimate is %g mW" p;
  Array.iteri
    (fun ch l ->
      if l < level_floor -. 1e-9 || l > 1.0 +. 1e-9 then
        Invariant.fail "power-cap: chiplet %d level %g outside [%g, 1]" ch l
          level_floor)
    t.level
