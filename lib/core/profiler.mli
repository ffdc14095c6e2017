(** Per-worker performance profiler (paper §4.5).

    Reads the simulated PMU exactly as CHARM reads
    [ANY_DATA_CACHE_FILLS_FROM_SYSTEM] on AMD hardware: each worker keeps a
    baseline of its current core's fill counters and consumes deltas at
    every scheduling-policy tick.  Profiling charges a small per-check
    overhead to the worker, modelling the paper's 5–10%% polling cost.

    Reads and resets write into per-worker int slots and allocate
    nothing; the counts are read back one {!counter} at a time. *)

open Chipsim

type counter =
  | Local_hits  (** L3 fills served by the local chiplet slice *)
  | Remote_chiplet  (** fills served by another chiplet, same socket *)
  | Remote_numa  (** fills served from the other socket's caches *)
  | Dram  (** fills served from memory (either node) *)

type t

val create : Machine.t -> n_workers:int -> t

val read : t -> worker:int -> core:int -> unit
(** Take the fill-event deltas on [core] since this worker's last
    {!reset}; {!delta} and {!remote_events} return them until the next
    [read]. *)

val delta : t -> worker:int -> counter -> int
(** One count of the worker's last {!read}. *)

val remote_events : t -> worker:int -> int
(** The Alg. 1 counter of the worker's last {!read}:
    [Remote_chiplet + Remote_numa + Dram]. *)

val reset : t -> worker:int -> core:int -> unit
(** Re-baseline after a policy decision (Alg. 1 line 18) or a migration,
    adding the deltas since the last reset to {!cumulative}. *)

val cumulative : t -> worker:int -> counter -> int
(** All deltas this worker's resets have consumed (for end-of-run
    statistics). *)

val rebase : t -> worker:int -> core:int -> unit
(** Set the baseline to [core]'s current counters {e without} accumulating a
    delta — used right after a migration, when the old baseline refers to a
    different core's counters. *)
