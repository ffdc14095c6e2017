(* Fig. 1: the headline summary — CHARM's speedup over the best NUMA-aware
   system per domain.  Paper: up to 3.9x in statistical computation, 2.3x
   in graph processing, consistent gains on memory-intensive workloads. *)

module Sys_ = Harness.Systems

let value = Util.value "fig1"

let graph_speedup kernel =
  let tp sys = value (Util.batch kernel sys ~workers:64) in
  let charm = tp Sys_.Charm in
  charm /. List.fold_left (fun acc sys -> Float.max acc (tp sys)) 0.0 [ Sys_.Ring; Sys_.Asymsched; Sys_.Sam ]

(* the paper's Fig. 11 comparison: DW+CHARM vs DimmWitted's own engine
   (kernel threads, coarse per-core tasks, NUMA-node replicas) *)
let sgd_speedup () =
  let gbps sys = value (Util.batch Experiment.Sgd sys ~workers:64) in
  gbps Sys_.Charm /. gbps Sys_.Dw_native

(* Fig. 9's configuration at 16 cores, where the paper reports the widest
   CHARM-vs-SHOAL gap *)
let streamcluster_speedup () =
  let time sys = value (Util.batch ~cache_scale:Fig9.cache_scale Experiment.Streamcluster sys ~workers:16) in
  time Sys_.Shoal /. time Sys_.Charm

let run () =
  Util.section "Fig. 1 - CHARM speedups vs NUMA-aware systems (summary)";
  Util.row "  %-34s %10s\n" "workload (vs best NUMA baseline)" "speedup";
  List.iter
    (fun (name, kernel) -> Util.row "  %-34s %9.2fx\n" (name ^ " @64 cores") (graph_speedup kernel))
    Experiment.[ ("BFS", Bfs); ("CC", Cc); ("SSSP", Sssp); ("GUPS", Gups) ];
  Util.row "  %-34s %9.2fx\n" "SGD gradient @64 cores (vs DW engine)" (sgd_speedup ());
  Util.row "  %-34s %9.2fx\n" "Streamcluster @16 cores (vs SHOAL)" (streamcluster_speedup ())
