open Workloads

let env sys ~workers =
  let inst = Harness.Systems.make sys Harness.Systems.Amd_milan ~n_workers:workers () in
  inst.Harness.Systems.env

let params =
  { Streamcluster.points = 512; dims = 8; batch = 256; k_max = 20; search_rounds = 3; seed = 5 }

let test_runs_and_counts () =
  let o = Streamcluster.run (env Harness.Systems.Charm ~workers:4) params in
  Alcotest.(check bool) "evaluations happened" true
    (o.Streamcluster.result.Workload_result.work_items > 0);
  Alcotest.(check bool) "cost positive" true (o.Streamcluster.total_cost > 0.0);
  Alcotest.(check bool) "centers bounded" true
    (o.Streamcluster.centers_opened <= 2 * params.Streamcluster.k_max)

let test_deterministic_quality_across_systems () =
  let a = Streamcluster.run (env Harness.Systems.Charm ~workers:4) params in
  let b = Streamcluster.run (env Harness.Systems.Shoal ~workers:4) params in
  Alcotest.(check (float 0.0001)) "same clustering quality"
    a.Streamcluster.total_cost b.Streamcluster.total_cost;
  Alcotest.(check int) "same centers" a.Streamcluster.centers_opened
    b.Streamcluster.centers_opened

let test_opening_centers_reduces_cost () =
  (* more search rounds can only (weakly) reduce the final assignment cost *)
  let none = Streamcluster.run (env Harness.Systems.Charm ~workers:4)
      { params with Streamcluster.search_rounds = 0 } in
  let some = Streamcluster.run (env Harness.Systems.Charm ~workers:4) params in
  Alcotest.(check bool) "local search helps" true
    (some.Streamcluster.total_cost <= none.Streamcluster.total_cost)

let test_invalid_params () =
  try
    ignore (Streamcluster.run (env Harness.Systems.Charm ~workers:2)
              { params with Streamcluster.batch = 0 });
    Alcotest.fail "accepted zero batch"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "runs and counts" `Quick test_runs_and_counts;
    Alcotest.test_case "deterministic across systems" `Quick
      test_deterministic_quality_across_systems;
    Alcotest.test_case "local search reduces cost" `Quick test_opening_centers_reduces_cost;
    Alcotest.test_case "invalid params" `Quick test_invalid_params;
  ]
