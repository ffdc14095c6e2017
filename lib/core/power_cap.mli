(** Sliding-window power estimation and a hysteretic power-cap controller.

    The simulator's energy unit is picojoules over virtual nanoseconds,
    and 1 pJ/ns is exactly 1 mW — every power figure here is in simulated
    milliwatts with no conversion constants.

    The estimator samples each chiplet's combined (access + compute)
    energy meter ({!Chipsim.Machine.chiplet_energies}) on a fixed virtual
    cadence and differentiates over a sliding window.  When the
    machine-wide estimate exceeds the cap, the controller sheds the
    hottest chiplet's DVFS level by 25% (down to a floor), reusing the
    fault subsystem's {!Chipsim.Modifiers.set_core_speed} actuator — a
    deliberate throttle, not a fault, but the same hardware knob, so the
    rest of the runtime (health monitor, policy) sees it exactly as it
    would see thermal throttling.  Levels release a step at a time only
    once power falls below 80% of the cap; the dead band in between is
    the hysteresis that keeps the actuator from flapping on a steady
    workload.  Compute energy scales with the square of the DVFS factor
    ({!Chipsim.Machine.charge_quantum}), so power falls roughly cubically
    with each shed — frequency shedding converges fast. *)

type t

type action =
  | Idle
  | Shed of int  (** chiplet throttled one step *)
  | Release of int  (** chiplet released one step *)

val create :
  ?window_ns:float -> ?sample_ns:float -> Chipsim.Machine.t -> cap_mw:float -> t
(** [create machine ~cap_mw] — [window_ns] (default 500 µs) is the power
    averaging window, [sample_ns] (default 50 µs, the scheduler-timer
    scale) the sampling cadence; the window is clamped to at least two
    samples.  @raise Invalid_argument on a non-positive cap, window or
    cadence. *)

val tick : t -> now_ns:float -> action
(** Advance the controller to [now_ns] (non-monotonic calls are fine —
    worker clocks are not globally ordered; the controller keeps its own
    max-clock timeline).  At most one sample and one actuation per
    cadence period; between samples this is one float compare. *)

val tick_cell : t -> float array -> action
(** {!tick} at the clock in [cell.(0)], such as
    {!Engine.Sched.worker_clock_cell}: the reading crosses no call boxed,
    so a tick that takes no sample allocates nothing. *)

val power_mw : t -> float
(** Current machine-wide windowed power estimate (sum over chiplets). *)

val chiplet_power_mw : t -> chiplet:int -> float
(** Windowed power of one chiplet; 0 until two samples exist.
    @raise Invalid_argument on an out-of-range chiplet. *)

val max_power_mw : t -> float
(** Highest machine-wide windowed estimate ever observed. *)

val cap_mw : t -> float

val level : t -> chiplet:int -> float
(** The DVFS level the controller currently holds the chiplet at
    (1.0 = unthrottled, floor 0.3). *)

val throttled : t -> chiplet:int -> bool
(** [level < 1.0] — the "hot chiplet" predicate {!Policy} steers
    placement away from when [Config.energy_weight > 0]. *)

val sheds : t -> int
(** Total shed actuations (hysteresis tests assert this settles on a
    steady workload). *)

val verify : t -> unit
(** Power-cap invariants: no over-cap tick ever passed with shedding
    headroom left but no actuation, the controller reacted at least once
    if power ever exceeded the cap, the windowed estimate is finite and
    non-negative, and every level lies in [floor, 1].
    @raise Chipsim.Invariant.Violation on the first broken one. *)
