(** Execution environment handed to workloads.

    Abstracts over the runtime system driving the workload (CHARM or any
    baseline): workloads allocate shared data and submit a main task; the
    system's placement/memory policies are already wired into the
    scheduler behind [sched]. *)

open Chipsim

type t = {
  sched : Engine.Sched.t;
  alloc_shared : elt_bytes:int -> count:int -> Simmem.region;
  run : (Engine.Sched.ctx -> unit) -> float;
      (** run a main task to completion; returns the makespan (virtual ns) *)
}

val machine : t -> Machine.t
val n_workers : t -> int
