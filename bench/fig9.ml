(* Fig. 9: Streamcluster speedup over the no-runtime-support baseline,
   CHARM vs SHOAL, 1..128 cores.  Paper shape: CHARM peaks earlier and
   higher (21x @ 24 cores vs SHOAL's 16x @ 32), leads up to ~40 cores,
   then both decay as over-parallelism fragments the input. *)

module Sys_ = Harness.Systems

let cache_scale = 128  (* 256 KiB slices: the 8 MiB stream exceeds all caches *)
let spec = Util.batch ~cache_scale Experiment.Streamcluster
let core_counts = [ 1; 4; 8; 16; 24; 32; 48; 64; 128 ]

let run () =
  Util.section "Fig. 9 - Streamcluster speedup: CHARM vs SHOAL";
  let time sys ~workers = Util.value "fig9" (spec sys ~workers) in
  let base = time Sys_.Os_default ~workers:1 in
  Util.row "  (speedup over 1-core run without architecture-aware support)\n";
  Util.row "  %-6s %10s %10s\n" "cores" "charm" "shoal";
  List.iter
    (fun workers ->
      let charm = base /. time Sys_.Charm ~workers in
      let shoal = base /. time Sys_.Shoal ~workers in
      Util.row "  %-6d %9.2fx %9.2fx\n" workers charm shoal)
    core_counts

(* Tab. 2: access-class breakdown for the same workload. *)
let run_tab2 () =
  Util.section "Tab. 2 - memory/cache accesses: CHARM vs SHOAL";
  Util.row "  %-6s | %12s %12s | %12s %12s | %12s %12s\n" "cores" "local(charm)"
    "local(shoal)" "rmt(charm)" "rmt(shoal)" "dram(charm)" "dram(shoal)";
  List.iter
    (fun workers ->
      let counts sys =
        let a = (Util.stats "tab2" (spec sys ~workers)).Engine.Stats.accesses in
        Engine.Stats.(a.local_chiplet, a.remote_chiplet, a.dram)
      in
      let cl, cr, cd = counts Sys_.Charm in
      let sl, sr, sd = counts Sys_.Shoal in
      Util.row "  %-6d | %12d %12d | %12d %12d | %12d %12d\n" workers cl sl cr sr cd sd)
    [ 8; 16; 32; 64 ]
