let env ?cache_scale sys ~workers =
  let inst =
    Harness.Systems.make ?cache_scale sys Harness.Systems.Amd_milan
      ~n_workers:workers ()
  in
  inst.Harness.Systems.env

let test_storage_semantics () =
  let e = env Harness.Systems.Charm ~workers:2 in
  let alloc = e.Workloads.Exec_env.alloc_shared in
  let t = Oltp.Storage.create_table ~alloc ~name:"t" ~rows:4 ~payload_words:2 in
  ignore
    (Workloads.Exec_env.run e (fun ctx ->
         Oltp.Storage.write_field ctx t ~row:2 ~word:1 99;
         Alcotest.(check int) "read back" 99
           (Oltp.Storage.read_field ctx t ~row:2 ~word:1))
      : float);
  Alcotest.(check int) "peek" 99 (Oltp.Storage.peek t ~row:2 ~word:1);
  try
    ignore (Oltp.Storage.peek t ~row:4 ~word:0);
    Alcotest.fail "accepted bad row"
  with Invalid_argument _ -> ()

let test_commit_serializes () =
  let e = env Harness.Systems.Charm ~workers:8 in
  let alloc = e.Workloads.Exec_env.alloc_shared in
  let engine = Oltp.Txn.create ~alloc ~commit_service_ns:500.0 ~group_size:4 () in
  let makespan =
    Workloads.Exec_env.run e (fun ctx ->
        Engine.Par.all_do ctx (fun ctx' _w ->
            for _ = 1 to 25 do
              Oltp.Txn.commit engine ctx'
            done))
  in
  Alcotest.(check int) "commits" 200 (Oltp.Txn.commits engine);
  (* the log is serial: every flushed batch occupies the device; only the
     last (unflushed) partial batch per worker escapes *)
  let flushed = 200 - (8 * 3) in
  Alcotest.(check bool) "serialized lower bound" true
    (makespan >= float_of_int flushed *. 500.0)

let ycsb_params =
  { Oltp.Ycsb.default_params with Oltp.Ycsb.records = 1024; ops = 1024 }

let test_ycsb_counts () =
  let o = Oltp.Ycsb.run (env Harness.Systems.Charm ~workers:8) ycsb_params in
  Alcotest.(check int) "one commit per op" 1024 o.Oltp.Ycsb.commits;
  Alcotest.(check bool) "throughput positive" true (o.Oltp.Ycsb.commits_per_second > 0.0)

let test_ycsb_policy_indifference () =
  (* the Fig. 14 result: Local vs Distributed commit/s within a small gap.
     Caches are scaled down so the table exceeds them, as the paper's 50M
     records exceed the real parts' L3. *)
  let run sys =
    (Oltp.Ycsb.run (env ~cache_scale:64 sys ~workers:16) Oltp.Ycsb.default_params)
      .Oltp.Ycsb.commits_per_second
  in
  let local = run Harness.Systems.Local_cache in
  let dist = run Harness.Systems.Distributed_cache in
  let gap = abs_float (local -. dist) /. Float.max local dist in
  Alcotest.(check bool) "within 15%" true (gap < 0.15)

let test_ycsb_mixes () =
  let run mix distribution =
    Oltp.Ycsb.run
      (env Harness.Systems.Charm ~workers:8)
      {
        Oltp.Ycsb.default_params with
        Oltp.Ycsb.records = 2048;
        ops = 2000;
        mix;
        distribution;
      }
  in
  let a = run Oltp.Ycsb.workload_a Oltp.Ycsb.Uniform in
  Alcotest.(check int) "A: no scans" 0 a.Oltp.Ycsb.scans;
  Alcotest.(check bool) "A: roughly half reads" true
    (let share = float_of_int a.Oltp.Ycsb.reads /. 2000.0 in
     share > 0.4 && share < 0.6);
  let c = run Oltp.Ycsb.workload_c Oltp.Ycsb.Uniform in
  Alcotest.(check int) "C: reads only" 2000 c.Oltp.Ycsb.reads;
  let e = run Oltp.Ycsb.workload_e (Oltp.Ycsb.Zipfian 0.99) in
  Alcotest.(check bool) "E: scan heavy" true (e.Oltp.Ycsb.scans > 1500);
  Alcotest.(check int) "E: commits still one per op" 2000 e.Oltp.Ycsb.commits

let test_ycsb_bad_mix () =
  try
    ignore
      (Oltp.Ycsb.run
         (env Harness.Systems.Charm ~workers:2)
         {
           Oltp.Ycsb.default_params with
           Oltp.Ycsb.mix =
             { Oltp.Ycsb.read_pct = 50; update_pct = 0; rmw_pct = 0;
               scan_pct = 0; insert_pct = 0 };
         });
    Alcotest.fail "accepted mix summing to 50"
  with Invalid_argument _ -> ()

let tpcc_params =
  {
    Oltp.Tpcc.default_params with
    Oltp.Tpcc.warehouses = 4;
    customers_per_district = 30;
    items = 100;
    txns = 512;
  }

let test_tpcc_counts () =
  let o = Oltp.Tpcc.run (env Harness.Systems.Charm ~workers:8) tpcc_params in
  Alcotest.(check int) "one commit per txn" 512 o.Oltp.Tpcc.commits;
  Alcotest.(check bool) "new orders ~45%" true
    (let share = float_of_int o.Oltp.Tpcc.new_orders /. 512.0 in
     share > 0.30 && share < 0.60)

let test_tpcc_policy_indifference () =
  let run sys =
    (Oltp.Tpcc.run (env ~cache_scale:32 sys ~workers:16) Oltp.Tpcc.default_params)
      .Oltp.Tpcc.commits_per_second
  in
  let local = run Harness.Systems.Local_cache in
  let dist = run Harness.Systems.Distributed_cache in
  let gap = abs_float (local -. dist) /. Float.max local dist in
  Alcotest.(check bool) "within 15%" true (gap < 0.15)

let suite =
  [
    Alcotest.test_case "storage semantics" `Quick test_storage_semantics;
    Alcotest.test_case "commit serializes" `Quick test_commit_serializes;
    Alcotest.test_case "ycsb counts" `Quick test_ycsb_counts;
    Alcotest.test_case "ycsb policy indifference" `Slow test_ycsb_policy_indifference;
    Alcotest.test_case "ycsb workload mixes" `Quick test_ycsb_mixes;
    Alcotest.test_case "ycsb bad mix rejected" `Quick test_ycsb_bad_mix;
    Alcotest.test_case "tpcc counts" `Quick test_tpcc_counts;
    Alcotest.test_case "tpcc policy indifference" `Slow test_tpcc_policy_indifference;
  ]
