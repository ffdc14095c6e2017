(** PARSEC-style streamcluster: online k-median clustering of a point
    stream processed in batches (paper §5.4, Fig. 9 / Tab. 2).

    Each batch runs a parallel assignment phase (every point scans the
    open centers) followed by local-search rounds that evaluate opening a
    candidate point as a new center (a parallel gain reduction touching
    the whole batch).  The data footprint — points plus a hot shared
    center set — is the working-set pattern SHOAL and CHARM contend over
    in the paper. *)

type params = {
  points : int;  (** points per batch x batches = total stream *)
  dims : int;
  batch : int;
  k_max : int;  (** cap on open centers per batch *)
  search_rounds : int;
  seed : int;
}

type outcome = {
  result : Workload_result.t;
  total_cost : float;  (** sum of point-to-center distances (quality) *)
  centers_opened : int;
}

val run : Exec_env.t -> params -> outcome
(** [work_items] counts point-center distance evaluations. *)
