(** Stochastic gradient descent for logistic regression over {!Dataset},
    with DimmWitted's model-replica strategies (Zhang & Ré, VLDB'14):
    one model per core, per NUMA node, or per machine.

    The two measured kernels match paper Fig. 11: the {e loss} evaluation
    (read-only over data + model) and the {e gradient} step (reads data,
    writes the replica — the write pattern is what differentiates the
    strategies on chiplets). *)

open Chipsim

type replica = Per_core | Per_node | Per_machine

val replica_to_string : replica -> string

type model = {
  replica : replica;
  weights : float array array;  (** one copy per replica *)
  sim_weights : Simmem.region array;
  owner_of_worker : int -> int;  (** worker id -> replica index *)
}

val make_model :
  Exec_env.t -> replica:replica -> features:int -> model

val loss_epoch :
  Exec_env.t -> ?grain:int -> model -> Dataset.t -> float * Workload_result.t
(** One full pass computing the logistic loss; returns (loss, result) with
    [work_items] = bytes of sample data streamed. *)

val gradient_epoch :
  Exec_env.t -> ?grain:int -> model -> Dataset.t -> Workload_result.t
(** One full SGD pass at learning rate 0.05 updating the replicas
    (averaged into replica 0 at the end, as DimmWitted's model averaging
    does).  [grain] is the chunk
    size in samples: DimmWitted's native engine uses one coarse chunk per
    core, CHARM uses fine chunks. *)

val predict_accuracy : model -> Dataset.t -> float
(** Fraction of samples classified correctly by replica 0. *)
