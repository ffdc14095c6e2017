(* Tab. 1: chiplet access classes, CHARM vs RING at 64 cores.  Paper
   shape: CHARM's remote-NUMA-chiplet fills are orders of magnitude below
   RING's, and its local-chiplet hits well above. *)

module Sys_ = Harness.Systems

let run () =
  Util.section "Tab. 1 - chiplet accesses at 64 cores, CHARM vs RING";
  Util.row "  %-10s %15s %15s %15s %15s\n" "workload" "rmtNUMA(charm)"
    "rmtNUMA(ring)" "local(charm)" "local(ring)";
  List.iter
    (fun (name, kernel) ->
      let counts sys =
        let a = (Util.stats "tab1" (Util.batch kernel sys ~workers:64)).Engine.Stats.accesses in
        Engine.Stats.(a.remote_numa, a.local_chiplet)
      in
      let charm_numa, charm_local = counts Sys_.Charm in
      let ring_numa, ring_local = counts Sys_.Ring in
      Util.row "  %-10s %15d %15d %15d %15d\n" name charm_numa ring_numa charm_local ring_local)
    Util.graph_kernels
