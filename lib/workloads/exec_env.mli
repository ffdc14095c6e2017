(** Execution environment handed to workloads.

    Abstracts over the runtime system driving the workload (CHARM or any
    baseline): workloads allocate shared data and submit a main task; the
    system's placement/memory policies are already wired into the
    scheduler behind [sched]. *)

open Chipsim

type t = {
  sched : Engine.Sched.t;
  alloc_shared : elt_bytes:int -> count:int -> Simmem.region;
      (** a dataset shared by all tasks, placed by the system's policy *)
}

val machine : t -> Machine.t
val n_workers : t -> int

val run : t -> (Engine.Sched.ctx -> unit) -> float
(** Spawn a main task on worker 0 and run the scheduler until every task
    finishes; returns the makespan (virtual ns).  Can be called
    repeatedly; clocks continue monotonically. *)
