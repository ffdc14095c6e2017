(* Fig. 13: TPC-H queries on the mini column store (DuckDB-style
   morsel-driven execution) with and without the CHARM runtime, 8 cores.
   Paper shape: every query benefits, the join-heavy ones (Q3/4/5/7/9/10,
   Q21) by 1.2-1.5x; Q18 (skewed group-by) improves least. *)

module Sys_ = Harness.Systems

let cache_scale = 16
let sf = 0.01
let workers = 8

let dataset env =
  Olap.Tpch_data.generate
    ~alloc:(fun ~elt_bytes ~count ->
      env.Workloads.Exec_env.alloc_shared ~elt_bytes ~count)
    ~sf ()

let run () =
  Util.section "Fig. 13 - TPC-H query times: DuckDB-style engine +/- CHARM";
  Util.row "  (scale-factor-%.2f-shaped data, %d cores)\n" sf workers;
  Util.row "  %-5s %14s %14s %10s %s\n" "query" "duckdb (ms)" "+charm (ms)" "speedup" "";
  (* unmodified engine: OS-default thread placement (DuckDB's own scheduler
     is chiplet-blind); +CHARM overrides scheduling and thread mapping.
     Each query is run once cold, then measured warm (the paper averages
     10 repetitions). *)
  let base_inst = Sys_.make ~cache_scale Sys_.Os_default (Util.machine Sys_.Amd_milan) ~n_workers:workers () in
  Util.attach_trace base_inst;
  let base_env = base_inst.Sys_.env in
  let base_data = dataset base_env in
  (* short-lived OLAP tasks: CHARM's profiling interval is configurable
     (paper 5.6); use a 10 us timer with a proportionally scaled threshold *)
  let charm_config =
    {
      Charm.Config.default with
      Charm.Config.scheduler_timer_ns = 10_000.0;
      rmt_chip_access_rate = 60.0;
    }
  in
  let charm_inst =
    Sys_.make ~cache_scale ~charm_config Sys_.Charm (Util.machine Sys_.Amd_milan)
      ~n_workers:workers ()
  in
  Util.attach_trace charm_inst;
  let charm_env = charm_inst.Sys_.env in
  let charm_data = dataset charm_env in
  let total_base = ref 0.0 and total_charm = ref 0.0 in
  let reps = 4 in
  let measure env data q =
    ignore (Olap.Tpch_queries.execute env data q);
    let result = ref { Olap.Tpch_queries.query = q; checksum = 0.0; rows_out = 0 } in
    let total = ref 0.0 in
    for _ = 1 to reps do
      let r, t = Olap.Tpch_queries.execute env data q in
      result := r;
      total := !total +. t
    done;
    (!result, !total /. float_of_int reps)
  in
  List.iter
    (fun q ->
      let rb, tb = measure base_env base_data q in
      let rc, tc = measure charm_env charm_data q in
      assert (abs_float (rb.Olap.Tpch_queries.checksum -. rc.Olap.Tpch_queries.checksum)
              <= 1e-6 *. (1.0 +. abs_float rb.Olap.Tpch_queries.checksum));
      total_base := !total_base +. tb;
      total_charm := !total_charm +. tc;
      Util.row "  Q%-4d %14.3f %14.3f %9.2fx %s\n" q (tb /. 1e6) (tc /. 1e6)
        (tb /. tc)
        (if List.mem q Olap.Tpch_queries.join_heavy then "(join-heavy)" else ""))
    Olap.Tpch_queries.query_numbers;
  Util.row "  %-5s %14.3f %14.3f %9.2fx\n" "all" (!total_base /. 1e6)
    (!total_charm /. 1e6)
    (!total_base /. !total_charm)
