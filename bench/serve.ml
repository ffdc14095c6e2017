(* Serving mode: tail latency vs offered load, CHARM vs RING vs the OS
   default.  The serving-side version of the paper's claim — a
   heterogeneity-aware mapping does not just raise batch throughput, it
   moves the latency knee: at equal offered load the CHARM-placed server
   holds lower p95/p99 and fewer SLO violations because job working sets
   stay on local chiplets while baselines spill to remote caches. *)

module Sys_ = Harness.Systems
module Server = Serving.Server
module Histogram = Serving.Histogram

let seed = 42
let n_workers = 32
let cache_scale = 16

let systems =
  [ (Sys_.Charm, "charm"); (Sys_.Ring, "ring"); (Sys_.Os_default, "os-default") ]

(* per-tenant offered load; aggregate is 3x this *)
let rates = [ 2_000.0; 5_000.0; 10_000.0; 20_000.0 ]

let config ~rate =
  let base = Server.default_config ~seed in
  {
    base with
    Server.tenants =
      List.map
        (fun t ->
          {
            t with
            Server.process = Serving.Arrivals.Open_loop { rate_per_s = rate };
          })
        base.Server.tenants;
  }

(* aggregate per-tenant latency distributions into one server-wide
   histogram instead of eyeballing the worst tenant: merged percentiles
   weight tenants by their actual traffic *)
let merged_latency r =
  let h = Histogram.create () in
  List.iter
    (fun (tr : Server.tenant_report) -> Histogram.merge h tr.Server.latency)
    r.Server.tenant_reports;
  h

let run_one sys ~rate =
  let inst = Sys_.make ~cache_scale sys (Util.machine Sys_.Amd_milan) ~n_workers () in
  (* the driver's --trace sink, if set, rides in on the server config so
     job lifecycle and counter events are captured too *)
  Server.run inst { (config ~rate) with Server.trace = !Util.trace_sink }

let run () =
  Util.section
    "Serve - tail latency vs offered load (3 tenants, merged distribution)";
  Util.row "  %-10s | %-10s %9s %9s %9s %6s %6s\n" "rate/tenant" "system"
    "p50(us)" "p95(us)" "p99(us)" "viol" "shed";
  List.iter
    (fun rate ->
      List.iter
        (fun (sys, name) ->
          let r = run_one sys ~rate in
          let h = merged_latency r in
          Util.row "  %-10.0f | %-10s %9.1f %9.1f %9.1f %6d %6d\n" rate name
            (Histogram.p50 h /. 1e3)
            (Histogram.p95 h /. 1e3)
            (Histogram.p99 h /. 1e3)
            (Util.total (fun tr -> tr.Server.slo_violations) r)
            (Util.total (fun tr -> tr.Server.shed) r))
        systems;
      Util.row "\n")
    rates
