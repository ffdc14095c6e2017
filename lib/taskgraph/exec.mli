(** Execute a mapped task DAG on the engine.

    Each node runs as a scheduler task pinned to a worker resident on its
    mapped chiplet; it awaits its predecessors, pulls each incoming
    edge's bytes across the chiplet fabric ({!Chipsim.Machine.transfer}),
    then charges its op-class-weighted compute.  With scheduler checking
    on, DAG precedence (no node starts before all predecessors finish)
    and edge-byte conservation (cut bytes charged exactly once) are
    verified and raise {!Chipsim.Invariant.Violation} when broken.  When
    a trace is attached, every node emits a [Dag_node] lifecycle event on
    its chiplet's track. *)

type result = {
  span_ns : float;  (** last node finish minus job start, virtual ns *)
  cross_bytes : int;  (** bytes charged across chiplet boundaries *)
  nodes_run : int;
}

val run :
  ?job_id:int ->
  Engine.Sched.ctx ->
  Mapper.t ->
  Graph.t ->
  result
(** Must be called from inside a scheduler task (it spawns and awaits
    children).  Deterministic for equal inputs and schedules.
    @raise Invalid_argument if the mapping does not cover the graph. *)
