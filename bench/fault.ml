(* Fault timeline: tail latency before / during / after a chiplet
   meltdown, CHARM vs RING vs the OS default.

   At t=3ms of a steady serving run, chiplet 0 melts down: every core
   throttles to 0.35x, the L3 drops to 2 ways and the I/O-die link
   degrades 6x (Faults.Schedule.chiplet_meltdown).  The claim under test:
   CHARM's health monitor flags the chiplet and the policy flees it, so
   its p99 re-converges to within 2x of the pre-fault tail once the gang
   has resettled — while fault-blind placements keep scheduling work onto
   the degraded silicon and never recover.  Every row is the charm_serve
   line [experiment] builds, printed under it. *)

module Sys_ = Harness.Systems
module Histogram = Serving.Histogram

let fault_us = 3_000.0
let settle_us = 4_000.0
let systems = [ Sys_.Charm; Sys_.Ring; Sys_.Os_default ]

(* 5000 jobs/s and 60 jobs per tenant (~12 ms of arrivals) of charm_serve's
   three default tenants, with the meltdown built for the machine it hits *)
let experiment sys =
  let t =
    Util.serving
      (Printf.sprintf "charm_serve -s %s -n 32 --rate 5000 --jobs 60" (Sys_.sys_name sys))
  in
  let topo = Sys_.topology t.machine ~cache_scale:t.cache_scale in
  { t with faults = [ (0, Faults.Schedule.chiplet_meltdown ~topo ~at_us:fault_us) ] }

(* latency histograms windowed by job arrival time *)
type windows = { pre : Histogram.t; during : Histogram.t; post : Histogram.t }

let run_one sys =
  let w = { pre = Histogram.create (); during = Histogram.create (); post = Histogram.create () } in
  let on_complete ~tenant:_ ~kind:_ ~submit_ns ~finish_ns =
    let h =
      if submit_ns < fault_us *. 1e3 then w.pre
      else if submit_ns < (fault_us +. settle_us) *. 1e3 then w.during
      else w.post
    in
    Histogram.observe h (finish_ns -. submit_ns)
  in
  let t = experiment sys in
  let inst, _, _, _ = Util.serve ~on_complete t in
  (t, w, inst)

let run () =
  Util.section
    "Fault - p99 across a chiplet-0 meltdown at t=3ms (dvfs 0.35x, L3 2 \
     ways, link 6x)";
  Util.row "  %-10s %12s %12s %12s %9s %s\n" "system" "pre(us)" "during(us)"
    "post(us)" "post/pre" "verdict";
  List.iter
    (fun sys ->
      let t, w, inst = run_one sys in
      let pre = Histogram.p99 w.pre and post = Histogram.p99 w.post in
      let ratio = if pre > 0.0 then post /. pre else 0.0 in
      let verdict = if ratio <= 2.0 then "recovered" else "degraded" in
      Util.row "  %-10s %12.1f %12.1f %12.1f %9.2f %s\n" (Sys_.sys_name sys) (pre /. 1e3)
        (Histogram.p99 w.during /. 1e3)
        (post /. 1e3) ratio verdict;
      (match inst.Sys_.charm with
      | Some rt ->
          let st = Charm.Policy.stats (Charm.Runtime.policy rt) in
          (* detection latency = first sick flag for the melted chiplet at
             or after the fault instant (warm-up imbalance can flag other
             chiplets earlier) *)
          let detect =
            Charm.Health_monitor.events (Charm.Runtime.health rt)
            |> List.filter_map (fun e ->
                   if
                     e.Charm.Health_monitor.chiplet = 0
                     && e.Charm.Health_monitor.sick
                     && e.Charm.Health_monitor.at_ns >= fault_us *. 1e3
                   then Some e.Charm.Health_monitor.at_ns
                   else None)
            |> function [] -> None | ns -> Some (List.fold_left min infinity ns)
          in
          (match detect with
          | Some flag_ns ->
              Util.row
                "  %-10s detection latency %.0f us, %d health migrations\n" ""
                ((flag_ns -. (fault_us *. 1e3)) /. 1e3)
                st.Charm.Policy.health_migrations
          | None ->
              Util.row "  %-10s no sick flag raised (%d health migrations)\n"
                "" st.Charm.Policy.health_migrations)
      | None -> ());
      Util.row "  %-10s %s\n" "" (Experiment.to_string t))
    systems
