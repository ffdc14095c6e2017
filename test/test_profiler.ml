open Chipsim
module P = Charm.Profiler

let machine () = Machine.create (Presets.amd_milan ())

(* the Alg. 1 counter of everything a worker's resets consumed *)
let cumulative_remote p ~worker =
  P.cumulative p ~worker P.Remote_chiplet
  + P.cumulative p ~worker P.Remote_numa
  + P.cumulative p ~worker P.Dram

let test_read_reset () =
  let m = machine () in
  let p = P.create m ~n_workers:2 in
  Pmu.add (Machine.pmu m) ~core:0 Pmu.Dram_local 5;
  Pmu.add (Machine.pmu m) ~core:0 Pmu.Fill_remote_chiplet 3;
  P.read p ~worker:0 ~core:0;
  Alcotest.(check int) "dram" 5 (P.delta p ~worker:0 P.Dram);
  Alcotest.(check int) "remote chiplet" 3 (P.delta p ~worker:0 P.Remote_chiplet);
  Alcotest.(check int) "alg1 counter" 8 (P.remote_events p ~worker:0);
  P.reset p ~worker:0 ~core:0;
  P.read p ~worker:0 ~core:0;
  Alcotest.(check int) "zero after reset" 0 (P.remote_events p ~worker:0);
  Alcotest.(check int) "cumulative keeps history" 8 (cumulative_remote p ~worker:0)

let test_rebase_does_not_accumulate () =
  let m = machine () in
  let p = P.create m ~n_workers:1 in
  Pmu.add (Machine.pmu m) ~core:9 Pmu.Dram_remote 50;
  (* migrating to core 9: rebase, do not claim core 9's history *)
  P.rebase p ~worker:0 ~core:9;
  P.read p ~worker:0 ~core:9;
  Alcotest.(check int) "no inherited events" 0 (P.remote_events p ~worker:0);
  Alcotest.(check int) "nothing accumulated" 0 (cumulative_remote p ~worker:0)

let test_workers_independent () =
  let m = machine () in
  let p = P.create m ~n_workers:2 in
  Pmu.add (Machine.pmu m) ~core:0 Pmu.Dram_local 7;
  P.reset p ~worker:0 ~core:0;
  (* worker 1 reading the same core sees the raw counters (its own baseline
     is still zero) -- workers own disjoint cores in practice *)
  P.read p ~worker:1 ~core:1;
  Alcotest.(check int) "other core quiet" 0 (P.remote_events p ~worker:1)

let suite =
  [
    Alcotest.test_case "read/reset/cumulative" `Quick test_read_reset;
    Alcotest.test_case "rebase after migration" `Quick test_rebase_does_not_accumulate;
    Alcotest.test_case "workers independent" `Quick test_workers_independent;
  ]
