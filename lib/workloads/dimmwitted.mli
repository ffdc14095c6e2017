(** DimmWitted-style analytics engine driver (paper §5.5, Fig. 11/12).

    Runs the SGD loss and gradient kernels for a given model-replica
    strategy and reports both throughputs in GB/s of virtual time,
    matching how the paper plots Fig. 11. *)

type outcome = {
  strategy : string;
  loss_gbps : float;
  gradient_gbps : float;
  final_loss : float;
  accuracy : float;
}

val run :
  Exec_env.t -> replica:Sgd.replica -> ?grain:int -> Dataset.t -> outcome
(** Two gradient passes between the initial and final loss evaluations;
    throughputs are averaged over passes. *)

val pp : Format.formatter -> outcome -> unit
