open Chipsim
module B = Baselines.Baseline

let amd () = Presets.amd_milan ()

let cores_of spec n =
  let topo = amd () in
  List.init n (fun w -> spec.B.placement topo ~n_workers:n w)

let test_layouts_injective () =
  let topo = amd () in
  let check name placement =
    let cores = List.init 128 (fun w -> placement topo ~n_workers:128 w) in
    let distinct = List.sort_uniq compare cores in
    Alcotest.(check int) (name ^ " injective over all cores") 128 (List.length distinct);
    List.iter (fun c -> Topology.validate_core topo c) cores
  in
  check "sequential" B.Layouts.sequential;
  check "socket-rr-scatter" B.Layouts.socket_round_robin_scatter;
  check "one-per-chiplet" B.Layouts.one_per_chiplet

let test_shoal_sequential () =
  let cores = cores_of (Baselines.Shoal.spec ()) 16 in
  Alcotest.(check (list int)) "cores 0..15" (List.init 16 Fun.id) cores;
  (* the paper's §5.4 point: 16 workers use only 2 of 8 chiplets *)
  let topo = amd () in
  let chiplets = List.sort_uniq compare (List.map (Topology.chiplet_of_core topo) cores) in
  Alcotest.(check int) "only 2 chiplets" 2 (List.length chiplets)

let test_ring_scatters_across_sockets () =
  let topo = amd () in
  let cores = cores_of (Baselines.Ring.spec ()) 8 in
  let sockets = List.map (Topology.socket_of_core topo) cores in
  Alcotest.(check int) "both sockets used" 2 (List.length (List.sort_uniq compare sockets));
  let chiplets = List.sort_uniq compare (List.map (Topology.chiplet_of_core topo) cores) in
  Alcotest.(check bool) "scattered over chiplets" true (List.length chiplets >= 4)

let test_distributed_cache_one_per_chiplet () =
  let topo = amd () in
  let cores = cores_of (Baselines.Static_policy.distributed_cache ()) 16 in
  let chiplets = List.map (Topology.chiplet_of_core topo) cores in
  Alcotest.(check int) "all 16 chiplets" 16 (List.length (List.sort_uniq compare chiplets))

let test_local_cache_packs () =
  let topo = amd () in
  let cores = cores_of (Baselines.Static_policy.local_cache ()) 8 in
  let chiplets = List.sort_uniq compare (List.map (Topology.chiplet_of_core topo) cores) in
  Alcotest.(check int) "one chiplet" 1 (List.length chiplets)

let test_driver_runs_workload () =
  let machine = Machine.create (amd ()) in
  let driver = B.init (Baselines.Os_default.spec ()) machine ~n_workers:4 in
  let sched = B.sched driver in
  let count = ref 0 in
  ignore
    (Engine.Sched.spawn sched ~worker:0 (fun ctx ->
         Engine.Par.all_do ctx (fun _ctx _w -> incr count))
      : Engine.Sched.task);
  let makespan = Engine.Sched.run sched in
  Alcotest.(check int) "all ran" 4 !count;
  Alcotest.(check bool) "time advanced" true (makespan > 0.0);
  let report = Engine.Stats.collect machine ~makespan_ns:makespan in
  Alcotest.(check bool) "stats collected" true (report.Engine.Stats.tasks_executed >= 4)

let test_sam_migrates_to_majority () =
  let machine = Machine.create (amd ()) in
  let spec = Baselines.Sam.spec () in
  let driver = B.init spec machine ~n_workers:8 in
  let sched = B.sched driver in
  let topo = Machine.topology machine in
  (* build a decisive 7-vs-1 majority on socket 0: SAM only consolidates
     on a strict (>= 60%) majority *)
  List.iter
    (fun (w, core) -> Engine.Sched.migrate sched ~worker:w ~core)
    [ (1, 10); (3, 12); (5, 14) ];
  Alcotest.(check int) "worker 7 starts on socket 1" 1
    (Topology.socket_of_core topo (Engine.Sched.worker_core sched 7));
  Pmu.add (Machine.pmu machine)
    ~core:(Engine.Sched.worker_core sched 7)
    Pmu.Fill_remote_numa 100_000;
  (match spec.B.on_tick with
  | Some tick ->
      (* first tick baselines the counter, second sees the delta *)
      tick driver ~worker:7;
      Pmu.add (Machine.pmu machine)
        ~core:(Engine.Sched.worker_core sched 7)
        Pmu.Fill_remote_numa 100_000;
      tick driver ~worker:7
  | None -> Alcotest.fail "sam has no tick");
  Alcotest.(check int) "pulled to the majority socket" 0
    (Topology.socket_of_core topo (Engine.Sched.worker_core sched 7))

let test_asymsched_rebalances () =
  let machine = Machine.create (amd ()) in
  let spec = Baselines.Asymsched.spec () in
  let driver = B.init spec machine ~n_workers:4 in
  let sched = B.sched driver in
  (* saturate node 0's channels in the current bin *)
  let now = Engine.Sched.worker_clock sched 0 in
  let region = Machine.alloc machine ~policy:(Simmem.Bind 0) ~elt_bytes:8 ~count:100_000 () in
  for i = 0 to 8_000 do
    ignore (Machine.touch machine ~core:0 ~now_ns:now ~write:false region (i * 8))
  done;
  let before = Topology.socket_of_core (Machine.topology machine) (Engine.Sched.worker_core sched 0) in
  (match spec.B.on_tick with
  | Some tick -> tick driver ~worker:0
  | None -> Alcotest.fail "asymsched has no tick");
  let after = Topology.socket_of_core (Machine.topology machine) (Engine.Sched.worker_core sched 0) in
  Alcotest.(check int) "was on socket 0" 0 before;
  Alcotest.(check int) "moved to socket 1" 1 after

(* Systems.make builds one alloc closure for every system: CHARM places
   shared datasets first-touch, a baseline by its spec's policy *)
let alloc_policy_case (sys, want) =
  let module S = Harness.Systems in
  let policy_name = function
    | Simmem.First_touch -> "first-touch"
    | Simmem.Interleave -> "interleave"
    | Simmem.Bind n -> Printf.sprintf "bind %d" n
  in
  Alcotest.test_case
    (Printf.sprintf "%s allocates %s" (S.sys_name sys) (policy_name want))
    `Quick (fun () ->
      let inst = S.make ~cache_scale:16 sys S.Amd_milan ~n_workers:4 () in
      let region = inst.S.env.Workloads.Exec_env.alloc_shared ~elt_bytes:8 ~count:1024 in
      Alcotest.(check string) "region policy" (policy_name want)
        (policy_name region.Simmem.region_policy))

let alloc_policies =
  let module S = Harness.Systems in
  [
    (S.Charm, Simmem.First_touch);
    (S.Charm_os_threads, Simmem.First_touch);
    (S.Ring, Simmem.First_touch);
    (S.Dw_native, Simmem.First_touch);
    (S.Shoal, Simmem.Interleave);
    (S.Asymsched, Simmem.First_touch);
    (S.Sam, Simmem.First_touch);
    (S.Os_default, Simmem.First_touch);
    (S.Local_cache, Simmem.Interleave);
    (S.Distributed_cache, Simmem.Interleave);
  ]

let suite =
  List.map alloc_policy_case alloc_policies
  @ [
    Alcotest.test_case "layouts injective" `Quick test_layouts_injective;
    Alcotest.test_case "shoal sequential fill" `Quick test_shoal_sequential;
    Alcotest.test_case "ring scatters across sockets" `Quick test_ring_scatters_across_sockets;
    Alcotest.test_case "distributed-cache spreads" `Quick test_distributed_cache_one_per_chiplet;
    Alcotest.test_case "local-cache packs" `Quick test_local_cache_packs;
    Alcotest.test_case "driver runs workloads" `Quick test_driver_runs_workload;
    Alcotest.test_case "sam migrates to majority socket" `Quick test_sam_migrates_to_majority;
    Alcotest.test_case "asymsched rebalances bandwidth" `Quick test_asymsched_rebalances;
  ]
