(* Fig. 8: the Fig. 7 suite on the Intel Sapphire Rapids model.  Paper
   shape: CHARM leads clearly up to one socket (48 cores); beyond it the
   gap to RING/AsymSched narrows, and SAM consistently underperforms (its
   PMU heuristics misread the platform). *)

module Sys_ = Harness.Systems

let core_counts = [ 6; 12; 24; 48; 72; 96 ]

let run () =
  Util.section "Fig. 8 - graph + random-access scalability (Intel model)";
  List.iter
    (fun (name, kernel) ->
      Util.subsection name;
      Util.row "  %-6s" "cores";
      List.iter (fun sys -> Util.row " %12s" (Sys_.sys_name sys)) Fig7.systems;
      Util.row "\n";
      List.iter
        (fun workers ->
          Util.row "  %-6d" workers;
          List.iter
            (fun sys ->
              let tp = Util.value "fig8" (Util.batch ~machine:Sys_.Intel_spr kernel sys ~workers) in
              Util.row " %12s" (Util.pp_throughput tp))
            Fig7.systems;
          Util.row "\n")
        core_counts)
    Util.graph_kernels
