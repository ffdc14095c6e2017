(** Alg. 1 — the decentralized Chiplet Scheduling Policy.

    Each worker periodically (every [SCHEDULER_TIMER] of virtual time)
    inspects its own cache-fill counter, computes the remote-access rate,
    and widens ([spread_rate + 1]) or narrows ([spread_rate - 1]) its gang
    footprint, then asks Alg. 2 for its new core.  Decisions use only
    worker-local observations — there is no central arbiter (paper §4.1). *)

open Chipsim

type stats = {
  ticks : int;  (** timer expirations evaluated *)
  spreads : int;  (** spread_rate increments *)
  contracts : int;  (** spread_rate decrements *)
  migrations : int;  (** affinity changes actually applied *)
  skipped : int;
      (** migrations skipped (invalid bounds, occupied core, or a
          health-vetoed sick target) *)
  health_migrations : int;
      (** of [migrations], those fleeing a chiplet flagged sick *)
}

type t

val create :
  Config.t ->
  Machine.t ->
  Controller.t ->
  Profiler.t ->
  Health_monitor.t ->
  Power_cap.t option ->
  n_workers:int ->
  t
(** The policy steers by the health monitor's sick chiplets: Alg. 2
    targets on them are vetoed, workers already on one flee to the
    nearest free healthy core at their next tick, and the controller
    threshold is halved for degraded workers.

    The power-cap controller's throttled chiplets are consulted only when
    [Config.energy_weight > 0]: hot chiplets then get the same treatment
    as sick ones, and flee candidates are scored EDP-style,
    [speed / (1 + energy_weight x kind energy density)], trading peak
    speed for efficient silicon.  With [energy_weight = 0] placement is
    identical to pre-energy CHARM, capped or not. *)

val spread_rate : t -> worker:int -> int

val tick : t -> Engine.Sched.t -> worker:int -> unit
(** Run one Alg. 1 evaluation for [worker] if its timer elapsed.  Intended
    as the scheduler's [on_quantum_end] hook.  Applies the migration via
    {!Engine.Sched.migrate} and rebases the worker's profiler sample.

    Each decision is recorded into the scheduler's trace when one is
    attached: a widened or narrowed spread_rate as a spread change at the
    deciding worker's clock (centralized mode records one gang-wide
    change as worker 0), and an adaptive mode switch, first, at the
    largest worker clock. *)

val force_tick : t -> Engine.Sched.t -> worker:int -> unit
(** Evaluate immediately, ignoring the timer (used by tests/benches). *)

val stats : t -> stats

