(** Core-to-core and fill latencies, in (virtual) nanoseconds.

    The distance classes mirror the stepped CDF of paper Fig. 3: intra-chiplet
    around 25 ns, inter-chiplet-intra-quadrant around 85 ns, cross-quadrant
    within a socket beyond 150 ns, and cross-socket slowest of all. *)

type distance =
  | Same_core
  | Same_chiplet
  | Same_group  (** different chiplet, same I/O-die quadrant, same socket *)
  | Same_socket  (** different quadrant, same socket *)
  | Cross_socket

type profile = {
  same_chiplet_ns : float;
  same_group_ns : float;
  same_socket_ns : float;
  cross_socket_ns : float;
  l2_hit_ns : float;
  dram_local_ns : float;
  dram_remote_ns : float;
  coherence_inval_ns : float;  (** per remote copy invalidated on a write *)
}

val default_profile : profile
(** Calibrated against the AMD EPYC Milan measurements of paper §2.1. *)

val classify : Topology.t -> int -> int -> distance
(** [classify topo core_a core_b] is the distance class between two cores. *)

val classify_chiplets : Topology.t -> int -> int -> distance
(** Distance class between two chiplets (never [Same_core]). *)

val rank_of_distance : distance -> int
(** Monotone rank of a distance class: 0 = [Same_core] .. 4 =
    [Cross_socket].  Smaller is closer. *)

val rank_matrix : Topology.t -> int array
(** [rank_matrix topo] is the [cores * cores] matrix of
    [rank_of_distance (classify topo a b)], flattened row-major
    ([a * cores + b]).  Precomputed once so hot scheduler paths resolve
    core distance by a single array load. *)

val core_to_core_ns : ?profile:profile -> Topology.t -> int -> int -> float
(** Latency of a cache-to-cache transfer between two cores, with a small
    deterministic per-pair jitter so the CDF is stepped but not degenerate. *)

val of_distance : profile -> distance -> float
