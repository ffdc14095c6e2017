(** YCSB over the OLTP engine, in the paper's §5.7 configuration: one
    table, uniform keys, 45%% reads and 55%% read-modify-writes. *)

val read_pct : int
(** The mix's read share in percent; every other operation is a
    read-modify-write. *)

type params = {
  records : int;
  payload_words : int;
  ops : int;  (** total operations (one per transaction) *)
  seed : int;
}

val default_params : params
(** The paper's table and operation count (§5.1). *)

type outcome = {
  result : Workloads.Workload_result.t;
  commits : int;
  commits_per_second : float;
  reads : int;
  rmws : int;
  read_sum : int;  (** checksum over read values (determinism probe) *)
}

val run : Workloads.Exec_env.t -> params -> outcome
