(** System-agnostic parallel helpers over {!Sched}.

    These express the task/RPC model shared by CHARM and the baseline
    runtimes (all of which inherit RING's API per paper §4.6); placement
    policy differences live entirely in scheduler hooks, so the same
    workload code runs under every system. *)

val call_sync : Sched.ctx -> worker:int -> (Sched.ctx -> unit) -> unit
(** Dispatch a closure to another worker and await it; the message pays
    the core-to-core latency before the task becomes runnable. *)

val all_do : Sched.ctx -> (Sched.ctx -> int -> unit) -> unit
(** Run [f ctx worker_id] on every worker; await all. *)

val parallel_for :
  Sched.ctx -> lo:int -> hi:int -> ?grain:int ->
  (Sched.ctx -> int -> int -> unit) -> unit
(** Fork chunks of [\[lo, hi)] round-robin over workers; await all. *)

val spawn_all : Sched.t -> n:int -> (int -> Sched.ctx -> unit) -> Sched.task list
(** Top-level: spawn [n] tasks round-robin (task [i] gets its index). *)
