open Chipsim

let test_incr_read () =
  let pmu = Pmu.create ~cores:4 in
  Pmu.incr pmu ~core:1 Pmu.L2_hit;
  Pmu.add pmu ~core:1 Pmu.L2_hit 4;
  Alcotest.(check int) "core 1" 5 (Pmu.read pmu ~core:1 Pmu.L2_hit);
  Alcotest.(check int) "core 0 untouched" 0 (Pmu.read pmu ~core:0 Pmu.L2_hit);
  Alcotest.(check int) "total" 5 (Pmu.total pmu Pmu.L2_hit)

let test_snapshot_delta () =
  let pmu = Pmu.create ~cores:2 in
  Pmu.incr pmu ~core:0 Pmu.Dram_local;
  let before = Pmu.snapshot pmu in
  Pmu.add pmu ~core:0 Pmu.Dram_local 7;
  Pmu.incr pmu ~core:1 Pmu.Dram_remote;
  let after = Pmu.snapshot pmu in
  Alcotest.(check int) "delta core 0" 7 (Pmu.delta ~before ~after ~core:0 Pmu.Dram_local);
  Alcotest.(check int) "delta total remote" 1 (Pmu.delta_total ~before ~after Pmu.Dram_remote)

(* Alg. 1's counter is the profiler's reading of these per-core events:
   fills from another chiplet (either socket) plus DRAM accesses *)
let test_remote_fill_events () =
  let machine = Machine.create (Presets.amd_milan_1s ()) in
  let pmu = Machine.pmu machine in
  let profiler = Charm.Profiler.create machine ~n_workers:1 in
  Pmu.incr pmu ~core:0 Pmu.Fill_remote_chiplet;
  Pmu.incr pmu ~core:0 Pmu.Fill_remote_numa;
  Pmu.incr pmu ~core:0 Pmu.Dram_local;
  Pmu.incr pmu ~core:0 Pmu.Dram_remote;
  Pmu.incr pmu ~core:0 Pmu.L3_local_hit;  (* not remote *)
  Pmu.incr pmu ~core:1 Pmu.Dram_local;  (* another core's *)
  Charm.Profiler.read profiler ~worker:0 ~core:0;
  Alcotest.(check int) "alg1 counter" 4 (Charm.Profiler.remote_events profiler ~worker:0)

let test_reset () =
  let pmu = Pmu.create ~cores:2 in
  Pmu.incr pmu ~core:0 Pmu.Migration;
  Pmu.incr pmu ~core:1 Pmu.Migration;
  Pmu.reset pmu;
  Alcotest.(check int) "all reset" 0 (Pmu.total pmu Pmu.Migration)

let test_bounds () =
  let pmu = Pmu.create ~cores:2 in
  Alcotest.check_raises "core out of range" (Invalid_argument "Pmu: core out of range")
    (fun () -> Pmu.incr pmu ~core:2 Pmu.L2_hit)

let all_events =
  Pmu.
    [
      L2_hit;
      L3_local_hit;
      Fill_remote_chiplet;
      Fill_remote_numa;
      Dram_local;
      Dram_remote;
      Coherence_invalidation;
      Task_executed;
      Task_stolen;
      Migration;
      Context_switch;
    ]

(* every event owns one counter slot: the indices are distinct and fill
   [0, num_events) *)
let test_event_names_unique () =
  Alcotest.(check int) "count" Pmu.num_events (List.length all_events);
  let idxs = List.map Pmu.event_index all_events in
  Alcotest.(check (list int)) "indices unique" (List.init Pmu.num_events Fun.id)
    (List.sort_uniq compare idxs)

let suite =
  [
    Alcotest.test_case "incr/read/total" `Quick test_incr_read;
    Alcotest.test_case "snapshot delta" `Quick test_snapshot_delta;
    Alcotest.test_case "remote fill counter" `Quick test_remote_fill_events;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "event names unique" `Quick test_event_names_unique;
  ]
