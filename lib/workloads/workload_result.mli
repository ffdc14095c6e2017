(** Common result shape for all workloads. *)

type t = {
  label : string;
  makespan_ns : float;
  work_items : int;  (** workload-defined unit (edges, updates, bytes...) *)
}

val v : label:string -> makespan_ns:float -> work_items:int -> t

val throughput_per_s : t -> float
(** work items per virtual second. *)
