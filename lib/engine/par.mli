(** System-agnostic parallel helpers over {!Sched}.

    These express the task/RPC model shared by CHARM and the baseline
    runtimes (all of which inherit RING's API per paper §4.6); placement
    policy differences live entirely in scheduler hooks, so the same
    workload code runs under every system. *)

val all_do : Sched.ctx -> (Sched.ctx -> int -> unit) -> unit
(** Run [f ctx worker_id] on every worker; await all.  Each closure is
    dispatched as the paper's [call]: its message pays the core-to-core
    latency before the task becomes runnable. *)

val parallel_for :
  Sched.ctx -> lo:int -> hi:int -> ?grain:int ->
  (Sched.ctx -> int -> int -> unit) -> unit
(** Fork chunks of [\[lo, hi)] round-robin over workers; await all. *)
