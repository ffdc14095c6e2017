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
  let bad_row = ref false in
  ignore
    (Workloads.Exec_env.run e (fun ctx ->
         try ignore (Oltp.Storage.read_field ctx t ~row:4 ~word:0)
         with Invalid_argument _ -> bad_row := true)
      : float);
  Alcotest.(check bool) "bad row rejected" true !bad_row

let test_commit_serializes () =
  let e = env Harness.Systems.Charm ~workers:8 in
  let alloc = e.Workloads.Exec_env.alloc_shared in
  let engine = Oltp.Txn.create ~alloc in
  let makespan =
    Workloads.Exec_env.run e (fun ctx ->
        Engine.Par.all_do ctx (fun ctx' _w ->
            for _ = 1 to 25 do
              Oltp.Txn.commit engine ctx'
            done))
  in
  Alcotest.(check int) "commits" 200 (Oltp.Txn.commits engine);
  (* the log is serial: every flushed batch of 8 occupies the device for
     350 ns per commit; only the last (unflushed) partial batch per
     worker, 25 mod 8 = 1 commit, escapes *)
  let flushed = 200 - (8 * 1) in
  Alcotest.(check bool) "serialized lower bound" true
    (makespan >= float_of_int flushed *. 350.0)

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

(* golden outcomes of the paper mix at two seeds: each worker draws the
   dice, then the key, and any change to that order moves them *)
let test_ycsb_paper_mix_pinned () =
  List.iter
    (fun (seed, reads, rmws, read_sum, makespan_bits) ->
      let o =
        Oltp.Ycsb.run (env Harness.Systems.Charm ~workers:8) { ycsb_params with Oltp.Ycsb.seed }
      in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check int) (name "commits") 1024 o.Oltp.Ycsb.commits;
      Alcotest.(check int) (name "reads") reads o.Oltp.Ycsb.reads;
      Alcotest.(check int) (name "rmws") rmws o.Oltp.Ycsb.rmws;
      Alcotest.(check int) (name "read_sum") read_sum o.Oltp.Ycsb.read_sum;
      Alcotest.(check int64) (name "makespan bits") makespan_bits
        (Int64.bits_of_float o.Oltp.Ycsb.result.Workloads.Workload_result.makespan_ns))
    [ (21, 499, 525, 125, 4692798636822921815L); (5, 436, 588, 138, 4692836212770240011L) ]

let suite =
  [
    Alcotest.test_case "storage semantics" `Quick test_storage_semantics;
    Alcotest.test_case "commit serializes" `Quick test_commit_serializes;
    Alcotest.test_case "ycsb counts" `Quick test_ycsb_counts;
    Alcotest.test_case "ycsb policy indifference" `Slow test_ycsb_policy_indifference;
    Alcotest.test_case "tpcc counts" `Quick test_tpcc_counts;
    Alcotest.test_case "tpcc policy indifference" `Slow test_tpcc_policy_indifference;
    Alcotest.test_case "ycsb paper mix pinned" `Quick test_ycsb_paper_mix_pinned;
  ]
