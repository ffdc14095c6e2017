(** Push-style parallel PageRank (3 iterations unless a serving job asks
    for another count).

    The push phase performs random writes into the next-rank vector —
    cross-chiplet invalidation traffic when the gang is spread — while the
    normalize phase is a sequential sweep.  This mix is what makes PR
    sensitive to placement in paper Fig. 7.  The damping factor is
    0.85. *)

val run : Exec_env.t -> Csr.t -> unit -> float array * Workload_result.t
(** Returns final ranks; [work_items] counts edge updates
    (edges x iterations). *)

val run_in :
  Engine.Sched.ctx -> Csr.t ->
  ranks:Chipsim.Simmem.region -> next:Chipsim.Simmem.region ->
  ?iterations:int -> unit -> float array * int
(** The same computation from inside an existing task (one job of a
    serving mix); [ranks]/[next] are the simulated shadows of the rank
    vectors.  Returns final ranks and the number of edge updates. *)

val reference : Csr.t -> unit -> float array
