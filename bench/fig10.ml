(* Fig. 10: CHARM's speedup over RING across graph sizes, at 32 and 64
   cores.  Paper shape: speedups stable as the graph grows (working-set
   driven, not total-size driven), best around sizes matching the L3
   capacity, larger at 64 cores than 32. *)

module Sys_ = Harness.Systems

let scales = [ 10; 12; 14; 15 ]  (* with cache scale 16: ~0.4 .. ~13 MiB graphs *)

let graph_mib scale =
  (* CSR bytes: (n+1 + 2m + 2m) * 8 with m = 16*2^scale symmetrised *)
  let n = 1 lsl scale in
  let m = 2 * 16 * n in
  float_of_int (8 * (n + 1 + m + m)) /. (1024.0 *. 1024.0)

let run () =
  Util.section "Fig. 10 - CHARM speedup over RING across graph sizes";
  List.iter
    (fun workers ->
      Util.subsection (Printf.sprintf "%d cores" workers);
      Util.row "  %-10s" "size";
      List.iter (fun (name, _) -> Util.row " %9s" name) Util.graph_kernels;
      Util.row "\n";
      List.iter
        (fun graph_scale ->
          Util.row "  %7.1fMiB" (graph_mib graph_scale);
          List.iter
            (fun (_, kernel) ->
              let tp sys = Util.value "fig10" { (Util.batch kernel sys ~workers) with graph_scale } in
              Util.row " %8.2fx" (tp Sys_.Charm /. tp Sys_.Ring))
            Util.graph_kernels;
          Util.row "\n")
        scales)
    [ 32; 64 ]
