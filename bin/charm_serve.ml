(* charm_serve: run one experiment — by default online multi-tenant
   serving of a job mix on the simulated chiplet machine: Poisson (or
   closed-loop) arrivals, admission control, weighted fair queueing, and a
   JSON metrics report on stdout, deterministic for a given seed.  With
   --fleet N the server is sharded across N machines behind a router.
   Shares every flag with charm_run (see Experiment); only the defaults
   differ.

   Examples:
     charm_serve -s charm -m amd -n 32 --rate 5000 --seed 42
     charm_serve -s ring -n 32 --rate 8000 --jobs 100 --queue-bound 16
     charm_serve -s charm -n 32 --closed-loop 8 --think-us 50
     charm_serve --fleet 3 -n 8 --jobs 15 --rate 8000 --router ewma *)

let () =
  Experiment.cli Experiment.charm_serve
    ~doc:"serve a multi-tenant job mix online on the simulated chiplet machine"
