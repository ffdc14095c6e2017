(** Adaptive controller (paper §4.1, component 2).

    Turns an {e approach} (guiding principle) into a concrete {e policy}:
    the effective remote-access threshold the per-worker scheduling policy
    (Alg. 1) compares against.  In [Adaptive] mode the controller inspects
    each worker's profiler sample and leans cache-centric when DRAM fills
    dominate (working set outgrew the current footprint — spread for more
    aggregate L3) and location-centric when cross-chiplet fills dominate
    (sharing traffic — consolidate for locality). *)

type decision = {
  mutable threshold : float;
      (** effective [RMT_CHIP_ACCESS_RATE] for this tick *)
}

type t

val create : Config.t -> t

val decide :
  t -> degraded:bool -> remote_chiplet:int -> dram:int -> remote:int -> decision
(** Per-worker, per-tick policy generation from the latest profiler
    counts ([remote] is the Alg. 1 counter, {!Profiler.remote_events}).
    [~degraded:true] (the worker sits on a chiplet the health monitor
    flagged sick) halves the threshold so the policy spreads away from
    known-bad silicon with half the usual evidence.

    The controller owns one [decision] and overwrites it on every call,
    so deciding allocates nothing: read [threshold] before the next
    [decide]. *)

val mode : t -> Config.approach
(** The concrete approach the last {!decide} chose ([Adaptive] before
    the first). *)

val mode_switches : t -> int
(** Number of times adaptive mode changed direction (for stats).  The
    first concrete resolution after {!create} is not a switch; a
    {!decide} that raised it switched from the previous {!mode} to the
    current one. *)
