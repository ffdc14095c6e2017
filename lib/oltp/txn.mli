(** Transaction engine: ERMIA-style pipelined group commit.

    Models the bottleneck paper §5.7 identifies: workers batch 8
    transactions, then claim the single hot log-tail cache
    line (coherence traffic) and serialise the batch's service time on
    the log device (virtual-time mutual exclusion).  These costs dwarf
    cache-placement effects for short transactions — the mechanism behind
    Fig. 14's policy indifference. *)

open Chipsim

type t

val create : alloc:(elt_bytes:int -> count:int -> Simmem.region) -> t
(** Each transaction costs 350 ns of log-device service. *)

val commit : t -> Engine.Sched.ctx -> unit
(** Record a commit; every 8th commit per worker flushes the
    batch: touch the log tail, wait for the log, occupy it. *)

val commits : t -> int
val commits_per_second : t -> makespan_ns:float -> float
