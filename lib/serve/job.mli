(** The unit of admission: one job of a known kind over shared datasets.

    Serving runs thousands of small requests against datasets that are
    loaded once ({!prepare}) — the multi-tenant analogue of the paper's
    one-shot workloads: BFS and PageRank reuse [lib/workloads]' in-task
    kernels over one shared graph, TPC-H queries run against one shared
    column store, YCSB batches hit one shared table through the OLTP
    engine, and GUPS batches pound one shared update table. *)

type kind =
  | Bfs  (** one traversal from a per-job pseudorandom source *)
  | Pagerank  (** a short fixed-iteration PageRank *)
  | Gups of int  (** that many random read-modify-writes *)
  | Tpch of int  (** one of the 22 TPC-H-shaped queries *)
  | Ycsb_batch of int  (** that many paper-mix transactions *)
  | Dag of Taskgraph.Graph.shape * int
      (** one generated task-DAG inference job of that shape with that
          many layers, mapped per {!data_config.dag_comm_aware} and
          executed through {!Taskgraph.Exec} *)

val kind_name : kind -> string
(** ["bfs"], ["pagerank"], ["gups:N"], ["tpch:Q"], ["ycsb:N"],
    ["dag:SHAPE:LAYERS"]. *)

val kind_of_string : string -> kind option
(** Inverse of {!kind_name}; also accepts the bare ["pr"], ["gups"],
    ["tpch"], ["ycsb"], ["dag"] with default sizes and ["dag:SHAPE"]
    with the default layer count. *)

type data_config = {
  graph_scale : int;  (** log2 vertices of the shared Kronecker graph *)
  dag_comm_aware : bool;
      (** map task-DAG jobs with the communication-aware mapper (default)
          instead of the blind round-robin baseline *)
  seed : int;  (** dataset-generation seed *)
}

val default_data_config : data_config
(** Small datasets sized for serving experiments: a scale-10 graph.  The
    other sizes are fixed: edge factor 8, SF 0.002 TPC-H, a 4 Ki-record
    YCSB table, a 16 Ki-word GUPS table and 2-iteration PageRank. *)

type data

val prepare : Workloads.Exec_env.t -> data_config -> data
(** Allocate and populate every shared dataset through the environment's
    shared allocator (so placement policy applies to serving data too). *)

val place : Workloads.Exec_env.t -> data -> data
(** The same datasets on another machine, without generating them again:
    every region is allocated afresh through that environment's shared
    allocator, in {!prepare}'s order, over the read-only host arrays of
    the graph and the TPC-H columns, which are shared.  The YCSB table
    and transaction log are mutable, so they are new.  A fleet prepares
    its datasets on one shard and places them on the others. *)

val cost_estimate : data -> kind -> float
(** Rough service demand (arbitrary units, consistent across kinds) used
    as the weighted-fair-queue cost and for SLO scaling; a pure function
    of the prepared datasets. *)

val run : Engine.Sched.ctx -> data -> seed:int -> kind -> int
(** Execute one job inside the calling task; nested parallelism fans out
    over the machine via the scheduler.  [seed] individualises the job
    (BFS source, GUPS/YCSB key streams).  Returns the work items done
    (edges, updates, rows, transactions).
    @raise Invalid_argument on [Tpch q] with [q] outside [1..22] or
    non-positive batch sizes. *)

val run_replica : Engine.Sched.ctx -> data -> seed:int -> replica:int -> kind -> int
(** {!run} for the [replica]-th member of a replica group (0 = primary).
    Identical to {!run} for every kind except [Dag], where the replica
    ordinal rotates the usable-chiplet preference so redundant DAG
    executions map their nodes onto different silicon. *)

val worker_chiplets : Engine.Sched.t -> int array option
(** Chiplets that currently host a scheduler worker ([None] if none was
    found, leaving the caller its default).  DAG mapping, batch and
    served, and replica placement restrict themselves to these. *)
