(* Fig. 14: OLTP commits/s under the static LocalCache vs DistributedCache
   policies across core counts.  Paper shape: the two curves are nearly
   identical for both YCSB and TPC-C — commit latency and synchronization
   dwarf cache-placement effects. *)

module Sys_ = Harness.Systems

let core_counts = [ 8; 16; 32; 64 ]

let run () =
  Util.section "Fig. 14 - OLTP commits/s: LocalCache vs DistributedCache";
  List.iter
    (fun (title, kernel) ->
      Util.subsection title;
      Util.row "  %-6s %14s %14s %8s\n" "cores" "local" "distributed" "gap";
      List.iter
        (fun workers ->
          let run sys = Util.value "fig14" (Util.batch ~cache_scale:32 kernel sys ~workers) in
          let l = run Sys_.Local_cache and d = run Sys_.Distributed_cache in
          Util.row "  %-6d %13sc/s %13sc/s %7.1f%%\n" workers (Util.pp_throughput l)
            (Util.pp_throughput d)
            (100.0 *. abs_float (l -. d) /. Float.max l d))
        core_counts)
    Experiment.
      [
        ("(a) YCSB (45% read / 55% RMW)", Ycsb);
        ("(b) TPC-C (45% NewOrder / 43% Payment / rest mixed)", Tpcc);
      ]
