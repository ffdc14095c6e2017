(* Fig. 7: graph-processing + random-access scalability on the AMD model:
   six workloads, CHARM vs RING / AsymSched / SAM across core counts.
   Paper shape: CHARM near-linear to 64 cores, baselines saturate around
   48-56, CHARM 1.8-2.3x at 64 cores and 2-2.8x beyond 96. *)

module Sys_ = Harness.Systems

let systems = [ Sys_.Charm; Sys_.Ring; Sys_.Asymsched; Sys_.Sam ]
let core_counts = [ 8; 16; 32; 48; 64; 96; 128 ]

let run () =
  Util.section "Fig. 7 - graph + random-access scalability (AMD model)";
  Util.row "  (throughput: edges/s for graphs, updates/s for GUPS)\n";
  List.iter
    (fun (name, kernel) ->
      Util.subsection name;
      Util.row "  %-6s" "cores";
      List.iter (fun sys -> Util.row " %12s" (Sys_.sys_name sys)) systems;
      Util.row " %10s\n" "charm/best";
      List.iter
        (fun workers ->
          let tps = List.map (fun sys -> Util.value "fig7" (Util.batch kernel sys ~workers)) systems in
          Util.row "  %-6d" workers;
          List.iter (fun t -> Util.row " %12s" (Util.pp_throughput t)) tps;
          Util.row " %9.2fx\n" (List.hd tps /. List.fold_left Float.max 0.0 (List.tl tps)))
        core_counts)
    Util.graph_kernels
