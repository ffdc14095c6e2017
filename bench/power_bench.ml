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
   picojoules over the serving makespan. *)

module Sys_ = Harness.Systems
module Server = Serving.Server
module Histogram = Serving.Histogram
module Job = Serving.Job
module Machine = Chipsim.Machine

let seed = 42
let n_workers = 5
let cache_scale = 16
let jobs_per_tenant = 30
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

let hetero_machine =
  match Sys_.custom_machine_of_spec hetero_topology with
  | Ok m -> m
  | Error msg -> failwith ("power bench: bad inline topology: " ^ msg)

let configs =
  [
    ("oblivious", Charm.Config.default);
    ("capped", { Charm.Config.default with power_cap_mw = cap_mw });
    ( "charm-edp",
      { Charm.Config.default with energy_weight = edp_weight; power_cap_mw = cap_mw } );
  ]

let graph_mix = [ (Job.Bfs, 2); (Job.Pagerank, 1) ]
let olap_mix = [ (Job.Tpch 1, 1); (Job.Tpch 6, 1) ]

let server_config () =
  let tenant name weight mix =
    {
      Server.name;
      weight;
      slo_factor = 3.0;
      process = Serving.Arrivals.Open_loop { rate_per_s = rate };
      jobs = jobs_per_tenant;
      mix;
      replicas = 1;
    }
  in
  {
    Server.tenants = [ tenant "graph" 2.0 graph_mix; tenant "olap" 1.0 olap_mix ];
    admission =
      { Serving.Admission.max_queue_per_tenant = 64; max_global_queue = 256 };
    max_inflight = 4;
    seed;
    data = { Job.default_data_config with graph_scale = 8; seed = seed + 1 };
    trace = None;
    on_complete = None;
    check = false;
  }

type row = {
  p99_us : float;
  avg_mw : float;
  energy_uj : float;
  sheds : int;
}

let run_one charm_config =
  let inst =
    Sys_.make ~cache_scale ~charm_config Sys_.Charm hetero_machine ~n_workers ()
  in
  Util.attach_trace inst;
  Engine.Sched.set_energy inst.Sys_.env.Workloads.Exec_env.sched true;
  let t0 = Unix.gettimeofday () in
  let report = Server.run inst (server_config ()) in
  let wall = Unix.gettimeofday () -. t0 in
  let energy_pj = Machine.combined_energy_pj inst.Sys_.machine in
  let sheds, peak_mw =
    match Option.map Charm.Runtime.power_cap inst.Sys_.charm with
    | Some (Some pc) ->
        (Charm.Power_cap.sheds pc, Charm.Power_cap.max_power_mw pc)
    | _ -> (0, 0.0)
  in
  (report, energy_pj, sheds, peak_mw, Engine.Stats.sim_events inst.Sys_.machine, wall)

let tenant_report (report : Server.report) name =
  List.find
    (fun (tr : Server.tenant_report) -> tr.Server.tenant = name)
    report.Server.tenant_reports

let run () =
  Util.section
    (Printf.sprintf
       "Power - serving tail latency vs watts (hetero machine, %d workers, \
        cap %.1f mW, EDP weight %g)"
       n_workers cap_mw edp_weight);
  Util.row "  %-10s %9s %9s %9s %9s %7s %9s %6s %10s %7s\n" "runtime"
    "p50(us)" "p99(us)" "avg(mW)" "peak(mW)" "sheds" "uJ" "done" "events"
    "wall(s)";
  let rows = Hashtbl.create 8 in
  List.iter
    (fun (name, charm_config) ->
      let report, energy_pj, sheds, peak_mw, events, wall =
        run_one charm_config
      in
      let graph = tenant_report report "graph" in
      let p99 = Histogram.p99 graph.Server.latency in
      let avg_mw = energy_pj /. report.Server.makespan_ns in
      let completed =
        List.fold_left
          (fun acc (tr : Server.tenant_report) -> acc + tr.Server.completed)
          0 report.Server.tenant_reports
      in
      Hashtbl.replace rows name
        { p99_us = p99 /. 1e3; avg_mw; energy_uj = energy_pj /. 1e6; sheds };
      Util.row "  %-10s %9.1f %9.1f %9.2f %9.2f %7d %9.2f %6d %10d %7.2f\n"
        name
        (Histogram.p50 graph.Server.latency /. 1e3)
        (p99 /. 1e3) avg_mw peak_mw sheds (energy_pj /. 1e6) completed events
        wall;
      Util.json_row ~experiment:"power"
        [
          ("runtime", Util.json_str name);
          ("rate_per_tenant", Util.json_num rate);
          ("workers", string_of_int n_workers);
          ("graph_p50_us", Util.json_num (Histogram.p50 graph.Server.latency /. 1e3));
          ("graph_p99_us", Util.json_num (p99 /. 1e3));
          ("avg_power_mw", Util.json_num avg_mw);
          ("peak_power_mw", Util.json_num peak_mw);
          ("sheds", string_of_int sheds);
          ("energy_uj", Util.json_num (energy_pj /. 1e6));
          ("completed", string_of_int completed);
          ("events", string_of_int events);
          ("makespan_us", Util.json_num (report.Server.makespan_ns /. 1e3));
          ("wall_s", Util.json_num wall);
        ])
    configs;
  let obliv = Hashtbl.find rows "oblivious" in
  let capped = Hashtbl.find rows "capped" in
  let edp = Hashtbl.find rows "charm-edp" in
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
  Util.json_row ~experiment:"power"
    [ ("verdict_energy_aware_on_frontier", if verdict then "true" else "false") ];
  if not verdict then exit 1
