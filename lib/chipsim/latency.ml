type distance =
  | Same_core
  | Same_chiplet
  | Same_group
  | Same_socket
  | Cross_socket

type profile = {
  same_chiplet_ns : float;
  same_group_ns : float;
  same_socket_ns : float;
  cross_socket_ns : float;
  l2_hit_ns : float;
  dram_local_ns : float;
  dram_remote_ns : float;
  coherence_inval_ns : float;
}

let default_profile =
  {
    same_chiplet_ns = 25.0;
    same_group_ns = 85.0;
    same_socket_ns = 150.0;
    cross_socket_ns = 220.0;
    l2_hit_ns = 12.0;
    dram_local_ns = 110.0;
    dram_remote_ns = 190.0;
    coherence_inval_ns = 18.0;
  }

let classify_chiplets topo ca cb =
  if ca = cb then Same_chiplet
  else if Topology.socket_of_chiplet topo ca <> Topology.socket_of_chiplet topo cb
  then Cross_socket
  else if Topology.group_of_chiplet topo ca = Topology.group_of_chiplet topo cb
  then Same_group
  else Same_socket

let classify topo a b =
  if a = b then Same_core
  else classify_chiplets topo (Topology.chiplet_of_core topo a) (Topology.chiplet_of_core topo b)

let rank_of_distance = function
  | Same_core -> 0
  | Same_chiplet -> 1
  | Same_group -> 2
  | Same_socket -> 3
  | Cross_socket -> 4

(* cores x cores distance ranks, flattened row-major: schedulers index
   this on every steal-order refresh instead of re-classifying pairs *)
let rank_matrix topo =
  let n = Topology.num_cores topo in
  let m = Array.make (n * n) 0 in
  for a = 0 to n - 1 do
    let row = a * n in
    for b = 0 to n - 1 do
      m.(row + b) <- rank_of_distance (classify topo a b)
    done
  done;
  m

let of_distance p = function
  | Same_core -> 0.0
  | Same_chiplet -> p.same_chiplet_ns
  | Same_group -> p.same_group_ns
  | Same_socket -> p.same_socket_ns
  | Cross_socket -> p.cross_socket_ns

(* Small deterministic per-pair jitter (up to ~8% of the class latency) so
   the latency CDF exhibits realistic spread within each step. *)
let pair_jitter a b =
  let h = (a * 0x9e3779b9) lxor (b * 0x85ebca6b) in
  let h = (h lxor (h lsr 13)) * 0xc2b2ae35 in
  let u = (h lsr 7) land 0xffff in
  float_of_int u /. 65535.0

let core_to_core_ns ?(profile = default_profile) topo a b =
  Topology.validate_core topo a;
  Topology.validate_core topo b;
  let base = of_distance profile (classify topo a b) in
  base *. (1.0 +. (0.08 *. pair_jitter (min a b) (max a b)))

let distance_to_string = function
  | Same_core -> "same-core"
  | Same_chiplet -> "same-chiplet"
  | Same_group -> "same-group"
  | Same_socket -> "same-socket"
  | Cross_socket -> "cross-socket"
