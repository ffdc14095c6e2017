(* charm_run: run one experiment — by default a batch workload under one
   runtime system on one simulated machine — and print throughput plus the
   chiplet-level access breakdown.  Shares every flag with charm_serve
   (see Experiment); only the defaults differ.

   Examples:
     charm_run -w bfs -s charm -n 64
     charm_run -w tpch -q 3 -s ring -n 8
     charm_run -w ycsb -s distributed-cache -n 32 -m amd --cache-scale 32 *)

let () =
  Experiment.cli Experiment.charm_run
    ~doc:"run a workload on the simulated chiplet machine under a runtime system"
