(** Degradation detector: turns the profiler's raw signals into a
    per-chiplet sick/healthy verdict the policy can steer by.

    Two detection paths feed the same flags:

    - {b OS-visible} state (core hotplug, DVFS throttling, which a real
      runtime reads from sysfs) flags a chiplet the moment the machine's
      {!Chipsim.Modifiers} generation moves.
    - {b Silent} degradation (link latency, L3 way loss, memory-channel
      throttling) is inferred from memory latency per access: each worker
      quantum contributes a [ns/access] sample — the delta of the core's
      accumulated {!Chipsim.Machine.mem_ns_cells} latency meter over the delta
      of its fill-event count, so compute time and scheduling delays
      cancel out — to its chiplet's fast EWMA.  A chiplet is flagged when
      the fast EWMA both jumps well above the chiplet's own slow baseline
      (faults are step changes; static workload heterogeneity is not) and
      stands out from the cross-chiplet median, for several consecutive
      samples.  The baseline freezes while sick and recovery is sticky —
      a run of samples back near the baseline — so the gang doesn't
      bounce.

    Everything is driven by virtual time and PMU deltas, so detection is
    deterministic. *)

open Chipsim

type t
type event = { chiplet : int; sick : bool; at_ns : float }

val create : Machine.t -> n_workers:int -> t

val observe : t -> Engine.Sched.t -> worker:int -> unit
(** Feed one quantum-end observation for [worker], read from the
    scheduler: its core and its clock.  Cheap (a few PMU reads), and
    allocation-free unless it produces a sample; intended to run from
    the scheduler's [on_quantum_end] hook before the policy tick.  Every
    flag transition is recorded into the scheduler's trace when one is
    attached: a [health: chiplet N sick|recovered] instant, then a
    [health] counter track of the [ns/access] EWMA and sick flag of each
    chiplet with data. *)

val sick : t -> chiplet:int -> bool
val sick_chiplets : t -> int list

val events : t -> event list
(** All flag transitions, oldest first. *)

