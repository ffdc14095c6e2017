(* Power figure: serving tail latency vs simulated watts on the
   heterogeneous machine, energy-aware CHARM vs cap-oblivious CHARM.

   Three runtimes serve the same two-tenant mix on tiny-hetero:

     oblivious  - plain CHARM with energy metering on (the meter is
                  observation only; this schedule is bit-identical to a
                  meter-off run) and no cap: unconstrained watts
     capped     - a machine power cap with energy_weight = 0: the
                  Power_cap controller sheds the hottest chiplet's DVFS
                  whenever the sliding-window estimate exceeds the cap,
                  but placement stays cap-oblivious, so work keeps
                  landing on throttled silicon
     charm-edp  - the same cap plus Config.energy_weight > 0: placement
                  consults the controller's hot-chiplet oracle and
                  discounts flee targets by their kind's power density,
                  steering work off throttled chiplets

   The headline claim is a latency-vs-watts frontier: both capped
   runtimes must actuate (sheds > 0) and hold average power below the
   oblivious draw, and CHARM-EDP must pay a smaller tail-latency premium
   for those watts than the cap-oblivious placement does.  1 pJ/ns is
   exactly 1 mW, so watts here are combined (memory + compute)
   picojoules over the serving makespan.  Every row is an experiment spec,
   carried in the row, so any row replays through charm_serve. *)

module Server = Serving.Server
module Histogram = Serving.Histogram

let n_workers = 5
let rate = 3_000.0
let cap_mw = 2.0
let edp_weight = 2.0

(* a grown tiny-hetero: six singleton-group chiplets (3 big, 2 little,
   1 accelerator) so a fleeing worker faces a genuine kind choice — a
   free big core and a free little core at the same distance rank — and
   the EDP score, not the distance rank, decides where work lands *)
let hetero_topology =
  "sockets 1; chiplets-per-socket 6; cores-per-chiplet 2; \
   chiplet-group-size 1; l3-bytes-per-chiplet 16KiB; l2-bytes-per-core \
   4KiB; line-bytes 64; mem-channels-per-socket 2; mem-bw-bytes-per-ns \
   4.8; chiplet-kinds big big big little little accel; link 5 lat-mult \
   1.5 bw 2"

(* the same two-tenant mix under each runtime's energy flags; seed 42,
   cache scale 16 and the admission bounds are charm_serve's defaults *)
let runtimes =
  [
    ("oblivious", "--energy");
    ("capped", Printf.sprintf "--energy --power-cap %g" cap_mw);
    ("charm-edp", Printf.sprintf "--energy --energy-weight %g --power-cap %g" edp_weight cap_mw);
  ]

let experiment flags =
  Util.experiment
    (Printf.sprintf
       "charm_serve --topology '%s' -n %d --rate %g --jobs 30 --graph-scale 8 \
        --tenant graph:2:bfs+bfs+pagerank --tenant olap:1:tpch:1+tpch:6 %s"
       hetero_topology n_workers rate flags)

let schema =
  {
    Row.name = "power";
    keys = [ "runtime"; "rate_per_tenant"; "workers" ];
    gates = [ ("events", Row.Exact); ("avg_power_mw", Row.Max_ratio 1.2) ];
    columns = [ "graph_p99_us" ];
  }

type row = { p99_us : float; avg_mw : float; sheds : int }

let run () =
  Util.section
    (Printf.sprintf
       "Power - serving tail latency vs watts (hetero machine, %d workers, \
        cap %.1f mW, EDP weight %g)"
       n_workers cap_mw edp_weight);
  Util.row "  %-10s %9s %9s %9s %9s %7s %9s %6s %10s %7s\n" "runtime"
    "p50(us)" "p99(us)" "avg(mW)" "peak(mW)" "sheds" "uJ" "done" "events"
    "wall(s)";
  let results =
    List.map
      (fun (name, flags) ->
        let t = experiment flags in
        let inst, report, events, wall = Util.serve t in
        let energy_pj = Chipsim.Machine.combined_energy_pj inst.Harness.Systems.machine in
        let sheds, peak_mw =
          match Option.map Charm.Runtime.power_cap inst.Harness.Systems.charm with
          | Some (Some pc) -> (Charm.Power_cap.sheds pc, Charm.Power_cap.max_power_mw pc)
          | _ -> (0, 0.0)
        in
        let graph = Util.latency report "graph" in
        let p99 = Histogram.p99 graph in
        let avg_mw = energy_pj /. report.Server.makespan_ns in
        let completed = Util.total (fun tr -> tr.Server.completed) report in
        Util.row "  %-10s %9.1f %9.1f %9.2f %9.2f %7d %9.2f %6d %10d %7.2f\n" name
          (Histogram.p50 graph /. 1e3)
          (p99 /. 1e3) avg_mw peak_mw sheds (energy_pj /. 1e6) completed events wall;
        Util.emit
          (Row.make schema ~spec:(Experiment.to_string t)
             [
               ("runtime", Key (Str name));
               ("rate_per_tenant", Key (Num rate));
               ("workers", Key (Int n_workers));
               ("graph_p50_us", Sim (Num (Histogram.p50 graph /. 1e3)));
               ("graph_p99_us", Sim (Num (p99 /. 1e3)));
               ("avg_power_mw", Sim (Num avg_mw));
               ("peak_power_mw", Sim (Num peak_mw));
               ("sheds", Sim (Int sheds));
               ("energy_uj", Sim (Num (energy_pj /. 1e6)));
               ("completed", Sim (Int completed));
               ("events", Sim (Int events));
               ("makespan_us", Sim (Num (report.Server.makespan_ns /. 1e3)));
               ("wall_s", Host (Num wall));
             ]);
        (name, { p99_us = p99 /. 1e3; avg_mw; sheds }))
      runtimes
  in
  let obliv = List.assoc "oblivious" results in
  let capped = List.assoc "capped" results in
  let edp = List.assoc "charm-edp" results in
  (* the frontier claim: both capped runtimes actuate and save watts,
     and EDP-aware placement pays a smaller tail premium for the cap
     than cap-oblivious placement does *)
  let caps_actuate = capped.sheds > 0 && edp.sheds > 0 in
  let caps_save = capped.avg_mw < obliv.avg_mw && edp.avg_mw < obliv.avg_mw in
  let edp_tail_better = edp.p99_us <= capped.p99_us in
  let edp_tail_bounded = edp.p99_us <= obliv.p99_us *. 1.25 in
  let verdict = caps_actuate && caps_save && edp_tail_better && edp_tail_bounded in
  Util.row
    "  VERDICT: CHARM-EDP %s the latency-vs-watts frontier (%.2f mW vs \
     oblivious %.2f mW, p99 %+.0f%% vs cap-oblivious %+.0f%%)\n"
    (if verdict then "holds" else "DOES NOT hold")
    edp.avg_mw obliv.avg_mw
    ((edp.p99_us /. obliv.p99_us -. 1.0) *. 100.0)
    ((capped.p99_us /. obliv.p99_us -. 1.0) *. 100.0);
  Util.emit (Row.verdict schema "energy_aware_on_frontier" verdict);
  if not verdict then exit 1
