(** Deterministic fault injector: replays a {!Schedule.t} against a live
    scheduler.

    The injector's {!pump} is the scheduler's fault pump, given to
    {!Engine.Sched.create} as [on_advance]; every fault is applied at the
    first quantum boundary whose event-loop frontier reaches its
    timestamp — no wall-clock, no sampling, so two runs with the same seed
    and schedule produce byte-identical traces.  Applying a fault mutates
    the machine's {!Chipsim.Modifiers} (and cache/channel state for L3 and
    bandwidth faults) and notifies the scheduler about core hotplug
    events. *)

type t

val create : Schedule.t -> t
(** Sort the schedule; nothing is applied until the pump runs. *)

val pump : t -> Engine.Sched.t -> float -> unit
(** Apply, in order, every event not yet applied that is due at or before
    the frontier. *)

val drain : t -> Engine.Sched.t -> now:float -> unit
(** Force-apply every event due at or before [now] (for end-of-run
    reporting outside the scheduler loop). *)
