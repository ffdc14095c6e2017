(* Serving mode: tail latency vs offered load, CHARM vs RING vs the OS
   default.  The serving-side version of the paper's claim — a
   heterogeneity-aware mapping does not just raise batch throughput, it
   moves the latency knee: at equal offered load the CHARM-placed server
   holds lower p95/p99 and fewer SLO violations because job working sets
   stay on local chiplets while baselines spill to remote caches.  Every
   row is the charm_serve line [experiment] builds. *)

module Sys_ = Harness.Systems
module Server = Serving.Server
module Histogram = Serving.Histogram

let systems = [ Sys_.Charm; Sys_.Ring; Sys_.Os_default ]

(* per-tenant offered load; aggregate is 3x this *)
let rates = [ 2_000.0; 5_000.0; 10_000.0; 20_000.0 ]

(* charm_serve's three default tenants; seed 42 and cache scale 16 are
   its defaults *)
let experiment sys ~rate =
  Util.serving (Printf.sprintf "charm_serve -s %s -n 32 --rate %g" (Sys_.sys_name sys) rate)

(* aggregate per-tenant latency distributions into one server-wide
   histogram instead of eyeballing the worst tenant: merged percentiles
   weight tenants by their actual traffic *)
let merged_latency r =
  let h = Histogram.create () in
  List.iter
    (fun (tr : Server.tenant_report) -> Histogram.merge h tr.Server.latency)
    r.Server.tenant_reports;
  h

let run () =
  Util.section
    "Serve - tail latency vs offered load (3 tenants, merged distribution)";
  Util.row "  %-10s | %-10s %9s %9s %9s %6s %6s\n" "rate/tenant" "system"
    "p50(us)" "p95(us)" "p99(us)" "viol" "shed";
  List.iter
    (fun rate ->
      List.iter
        (fun sys ->
          let _, r, _, _ = Util.serve (experiment sys ~rate) in
          let h = merged_latency r in
          Util.row "  %-10.0f | %-10s %9.1f %9.1f %9.1f %6d %6d\n" rate (Sys_.sys_name sys)
            (Histogram.p50 h /. 1e3)
            (Histogram.p95 h /. 1e3)
            (Histogram.p99 h /. 1e3)
            (Util.total (fun tr -> tr.Server.slo_violations) r)
            (Util.total (fun tr -> tr.Server.shed) r))
        systems;
      Util.row "\n")
    rates
