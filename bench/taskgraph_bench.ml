(* Task-graph serving: inference tail latency vs offered load on a
   heterogeneous machine, communication-aware DAG mapping vs the blind
   round-robin baseline.  An inference tenant submits generated DNN task
   DAGs (chain / inception / microservice-fanout shapes) alongside an
   OLAP tenant, on a machine mixing big, little and accelerator-only
   chiplets behind a slow link.  The comm-aware mapper contracts heavy
   edges into one chiplet and steers dense clusters to the accelerator,
   so it should hold a lower inference p99 than blind mapping at every
   offered load.  Every row is an experiment spec, carried in the row, so
   any row replays through charm_serve. *)

module Server = Serving.Server
module Histogram = Serving.Histogram
module Mapper = Taskgraph.Mapper

let n_workers = 8

(* the tiny-hetero preset as an inline spec, so the bench does not depend
   on the working directory (examples/topologies/tiny-hetero.topo is the
   same machine as a file) *)
let hetero_topology =
  "sockets 1; chiplets-per-socket 4; cores-per-chiplet 2; \
   chiplet-group-size 2; l3-bytes-per-chiplet 16KiB; l2-bytes-per-core \
   4KiB; line-bytes 64; mem-channels-per-socket 2; mem-bw-bytes-per-ns \
   4.8; chiplet-kinds big big little accel; link 3 lat-mult 1.5 bw 2"

(* per-tenant offered load (jobs/s of virtual time) *)
let rates = [ 1_000.0; 2_000.0; 4_000.0 ]

(* an inference tenant drawing chain DAGs twice as often as the other
   shapes, and an OLAP tenant; seed 42, cache scale 16 and the admission
   bounds are charm_serve's defaults *)
let experiment ~mapper ~rate =
  Util.experiment
    (Printf.sprintf
       "charm_serve --topology '%s' -n %d --rate %g --jobs 40 --graph-scale 8 \
        --tenant infer:2:dag:chain:4+dag:chain:4+dag:inception:3+dag:fanout:4 \
        --tenant olap:1:tpch:1+tpch:3+tpch:6 --dag-mapper %s"
       hetero_topology n_workers rate (Mapper.policy_name mapper))

let schema =
  {
    Row.name = "taskgraph";
    keys = [ "mapper"; "rate_per_tenant"; "workers" ];
    gates = [ ("events", Row.Exact) ];
    columns = [ "infer_p99_us"; "wall_s" ];
  }

let run () =
  Util.section
    (Printf.sprintf
       "Taskgraph - inference p99 vs load (hetero machine, %d workers, DAG \
        tenant + OLAP tenant)"
       n_workers);
  Util.row "  %-10s | %-10s %9s %9s %9s %6s %6s %10s %7s\n" "rate/tenant"
    "mapper" "p50(us)" "p99(us)" "olap-p99" "done" "shed" "events" "wall(s)";
  let p99s = Hashtbl.create 16 in
  List.iter
    (fun rate ->
      List.iter
        (fun mapper ->
          let name = Mapper.policy_name mapper in
          let t = experiment ~mapper ~rate in
          let _, report, events, wall = Util.serve t in
          let infer = Util.latency report "infer" and olap = Util.latency report "olap" in
          let completed = Util.total (fun tr -> tr.Server.completed) report in
          let shed = Util.total (fun tr -> tr.Server.shed) report in
          let p99 = Histogram.p99 infer in
          Hashtbl.replace p99s (rate, name) p99;
          Util.row "  %-10.0f | %-10s %9.1f %9.1f %9.1f %6d %6d %10d %7.2f\n"
            rate name
            (Histogram.p50 infer /. 1e3)
            (p99 /. 1e3)
            (Histogram.p99 olap /. 1e3)
            completed shed events wall;
          Util.emit
            (Row.make schema ~spec:(Experiment.to_string t)
               [
                 ("mapper", Key (Str name));
                 ("rate_per_tenant", Key (Num rate));
                 ("workers", Key (Int n_workers));
                 ("infer_p50_us", Sim (Num (Histogram.p50 infer /. 1e3)));
                 ("infer_p99_us", Sim (Num (p99 /. 1e3)));
                 ("olap_p99_us", Sim (Num (Histogram.p99 olap /. 1e3)));
                 ("completed", Sim (Int completed));
                 ("shed", Sim (Int shed));
                 ("events", Sim (Int events));
                 ("makespan_us", Sim (Num (report.Server.makespan_ns /. 1e3)));
                 ("wall_s", Host (Num wall));
               ]))
        Mapper.all_policies;
      Util.row "\n")
    rates;
  (* the headline claim: on a heterogeneous machine the comm-aware mapper
     must hold a lower inference p99 than blind mapping at every load *)
  let verdict =
    List.for_all
      (fun rate ->
        Hashtbl.find p99s (rate, "comm-aware") < Hashtbl.find p99s (rate, "blind"))
      rates
  in
  Util.row "  VERDICT: comm-aware mapping %s blind mapping on inference p99 %s\n"
    (if verdict then "beats" else "DOES NOT beat")
    (if verdict then "at every offered load" else "(regression!)");
  Util.emit (Row.verdict schema "comm_aware_beats_blind" verdict);
  if not verdict then exit 1
