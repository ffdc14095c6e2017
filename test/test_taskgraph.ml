(* The task-graph subsystem: generator determinism, mapper properties
   (blind vs comm-aware), DAG execution on the engine under invariants,
   and the accelerator-only placement satellite (OLAP work never lands on
   a [general_tasks = false] chiplet). *)

module Sys_ = Harness.Systems
module Graph = Taskgraph.Graph
module Mapper = Taskgraph.Mapper
module Exec = Taskgraph.Exec
module Topology = Chipsim.Topology
module Server = Serving.Server
module Job = Serving.Job

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* the tiny-hetero machine: 1 socket x 4 chiplets x 2 cores, kinds
   big big little accel — chiplet 3 (cores 6-7) is accelerator-only *)
let hetero_spec =
  "sockets 1; chiplets-per-socket 4; cores-per-chiplet 2; \
   chiplet-group-size 2; l3-bytes-per-chiplet 16KiB; l2-bytes-per-core \
   4KiB; line-bytes 64; mem-channels-per-socket 2; mem-bw-bytes-per-ns \
   4.8; chiplet-kinds big big little accel; link 3 lat-mult 1.5 bw 2"

let hetero_topo =
  match Topology.of_string hetero_spec with
  | Ok t -> t
  | Error m -> Alcotest.failf "hetero topo: %s" m

let hetero_machine =
  match Sys_.custom_machine_of_spec hetero_spec with
  | Ok m -> m
  | Error m -> Alcotest.failf "hetero machine: %s" m

let all_cases =
  List.concat_map
    (fun shape ->
      List.concat_map
        (fun layers -> List.map (fun seed -> (shape, layers, seed)) [ 0; 5 ])
        [ 1; 3; 6 ])
    Graph.all_shapes

(* -- generator ----------------------------------------------------------- *)

let test_generator_deterministic () =
  List.iter
    (fun (shape, layers, seed) ->
      let a = Graph.generate ~shape ~layers ~seed () in
      let b = Graph.generate ~shape ~layers ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "%s equal across calls" (Graph.name a))
        true (a = b);
      let c = Graph.generate ~shape ~layers ~seed:(seed + 1) () in
      Alcotest.(check bool)
        (Printf.sprintf "%s differs across seeds" (Graph.name a))
        false (a = c))
    all_cases

let test_generator_shapes () =
  let chain = Graph.generate ~shape:Graph.Chain ~layers:5 ~seed:0 () in
  Alcotest.(check int) "chain nodes" 7 (Graph.num_nodes chain);
  Alcotest.(check int) "chain edges" 6 (Graph.num_edges chain);
  let fan = Graph.generate ~shape:Graph.Fanout ~layers:5 ~seed:0 () in
  Alcotest.(check int) "fanout nodes" 7 (Graph.num_nodes fan);
  Alcotest.(check int) "fanout edges" 10 (Graph.num_edges fan);
  Alcotest.check_raises "layers must be positive"
    (Invalid_argument "Graph.generate: layers must be >= 1") (fun () ->
      ignore (Graph.generate ~shape:Graph.Chain ~layers:0 ~seed:0 ()))

(* -- mapper -------------------------------------------------------------- *)

let test_blind_round_robin () =
  let g = Graph.generate ~shape:Graph.Chain ~layers:6 ~seed:0 () in
  let usable = [| 0; 2 |] in
  let m = Mapper.map ~usable hetero_topo ~policy:Mapper.Blind g in
  Array.iteri
    (fun i ch ->
      Alcotest.(check int)
        (Printf.sprintf "node %d round-robins" i)
        usable.(i mod 2) ch)
    m.Mapper.assign

let test_mapper_usable_validation () =
  let g = Graph.generate ~shape:Graph.Chain ~layers:2 ~seed:0 () in
  List.iter
    (fun usable ->
      match Mapper.map ~usable hetero_topo ~policy:Mapper.Comm_aware g with
      | _ -> Alcotest.failf "usable %s accepted" "set"
      | exception Invalid_argument _ -> ())
    [ [||]; [| 4 |]; [| -1 |] ]

let test_comm_aware_cuts_less () =
  List.iter
    (fun (shape, layers, seed) ->
      let g = Graph.generate ~shape ~layers ~seed () in
      let blind = Mapper.map hetero_topo ~policy:Mapper.Blind g in
      let aware = Mapper.map hetero_topo ~policy:Mapper.Comm_aware g in
      Alcotest.(check bool)
        (Printf.sprintf "%s: comm-aware cuts <= blind" (Graph.name g))
        true
        (aware.Mapper.cross_bytes <= blind.Mapper.cross_bytes);
      Array.iter
        (fun ch ->
          Alcotest.(check bool) "assign in range" true
            (ch >= 0 && ch < Topology.num_chiplets hetero_topo))
        aware.Mapper.assign;
      (* the recorded cut agrees with a recount *)
      Alcotest.(check int)
        (Printf.sprintf "%s: cut recount" (Graph.name g))
        (Mapper.cross_bytes g ~assign:aware.Mapper.assign)
        aware.Mapper.cross_bytes;
      (* deterministic *)
      let again = Mapper.map hetero_topo ~policy:Mapper.Comm_aware g in
      Alcotest.(check bool) "mapping deterministic" true
        (again.Mapper.assign = aware.Mapper.assign))
    all_cases

(* -- execution on the engine --------------------------------------------- *)

let run_dag_once ~policy ~check g =
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm hetero_machine ~n_workers:8 () in
  let sched = inst.Sys_.env.Workloads.Exec_env.sched in
  if check then Engine.Sched.set_check sched true;
  let m = Mapper.map hetero_topo ~policy g in
  let result = ref None in
  ignore
    (Workloads.Exec_env.run inst.Sys_.env (fun ctx ->
         result := Some (Exec.run ctx m g))
      : float);
  if check then Engine.Sched.check_quiescent sched;
  (m, Option.get !result)

let test_exec_runs_under_invariants () =
  List.iter
    (fun (shape, layers, seed) ->
      let g = Graph.generate ~shape ~layers ~seed () in
      List.iter
        (fun policy ->
          let m, r = run_dag_once ~policy ~check:true g in
          Alcotest.(check int)
            (Printf.sprintf "%s: all nodes ran" (Graph.name g))
            (Graph.num_nodes g) r.Exec.nodes_run;
          Alcotest.(check int)
            (Printf.sprintf "%s: cut bytes charged" (Graph.name g))
            m.Mapper.cross_bytes r.Exec.cross_bytes;
          Alcotest.(check bool)
            (Printf.sprintf "%s: positive span" (Graph.name g))
            true (r.Exec.span_ns > 0.0))
        Mapper.all_policies)
    [ (Graph.Chain, 4, 0); (Graph.Inception, 3, 1); (Graph.Fanout, 5, 2) ]

let test_exec_deterministic () =
  let g = Graph.generate ~shape:Graph.Inception ~layers:3 ~seed:4 () in
  let _, a = run_dag_once ~policy:Mapper.Comm_aware ~check:false g in
  let _, b = run_dag_once ~policy:Mapper.Comm_aware ~check:false g in
  Alcotest.(check (float 0.0)) "same span across runs" a.Exec.span_ns b.Exec.span_ns

let test_exec_rejects_short_mapping () =
  let g = Graph.generate ~shape:Graph.Chain ~layers:3 ~seed:0 () in
  let m = Mapper.map hetero_topo ~policy:Mapper.Blind g in
  let short = { m with Mapper.assign = Array.sub m.Mapper.assign 0 1 } in
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm hetero_machine ~n_workers:8 () in
  match
    Workloads.Exec_env.run inst.Sys_.env (fun ctx -> ignore (Exec.run ctx short g))
  with
  | _ -> Alcotest.fail "short mapping accepted"
  | exception Invalid_argument m ->
      Alcotest.(check bool) "names the mapping" true (contains m "mapping")

(* -- accelerator-only chiplets stay off general work --------------------- *)

let test_accel_chiplet_flags () =
  Alcotest.(check bool) "big accepts general" true
    (Topology.chiplet_accepts_general hetero_topo 0);
  Alcotest.(check bool) "little accepts general" true
    (Topology.chiplet_accepts_general hetero_topo 2);
  Alcotest.(check bool) "accel refuses general" false
    (Topology.chiplet_accepts_general hetero_topo 3);
  Alcotest.(check int) "general chiplets per socket" 3
    hetero_topo.Topology.general_chiplets_per_socket

let accel_cores = Topology.cores_of_chiplet hetero_topo 3

let test_gang_avoids_accel () =
  (* a gang that fits on the general chiplets must never touch the accel
     chiplet, at any spread the general band allows *)
  let max_spread = Charm.Placement.max_general_spread hetero_topo ~n_workers:4 in
  Alcotest.(check int) "general spread caps at the general band" 3 max_spread;
  let cores ~spread_rate ~n_workers =
    List.init n_workers (fun worker ->
        Charm.Placement.core_of_worker hetero_topo ~spread_rate ~n_workers ~worker)
  in
  for spread_rate = 1 to max_spread do
    if Charm.Placement.valid_spread hetero_topo ~spread_rate ~n_workers:4 then
      List.iter
        (fun core ->
          Alcotest.(check bool)
            (Printf.sprintf "spread %d: core %d not on accel" spread_rate core)
            false (List.mem core accel_cores))
        (cores ~spread_rate ~n_workers:4)
  done;
  (* a gang too big for the general band does reach the accel chiplet *)
  let full = cores ~spread_rate:4 ~n_workers:8 in
  Alcotest.(check bool) "full-machine gang placed" false (List.mem (-1) full);
  Alcotest.(check bool) "8 workers must use the accel chiplet" true
    (List.exists (fun c -> List.mem c accel_cores) full)

let test_olap_serving_avoids_accel () =
  (* end to end: an OLAP/OLTP-only serving run on the hetero machine with
     6 workers (fits the 3 general chiplets) never executes a quantum on
     the accelerator-only chiplet *)
  let trace = Engine.Trace.create () in
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm hetero_machine ~n_workers:6 () in
  let tenant name mix =
    {
      Server.name;
      weight = 1.0;
      slo_factor = 3.0;
      process = Serving.Arrivals.Open_loop { rate_per_s = 3000.0 };
      jobs = 12;
      mix;
      replicas = 1;
    }
  in
  let cfg =
    {
      Server.tenants =
        [
          tenant "olap" [ (Job.Tpch 1, 1); (Job.Tpch 6, 1) ];
          tenant "oltp" [ (Job.Ycsb_batch 64, 1); (Job.Gups 512, 1) ];
        ];
      admission =
        { Serving.Admission.max_queue_per_tenant = 32; max_global_queue = 64 };
      max_inflight = 4;
      seed = 11;
      data = { Job.default_data_config with graph_scale = 7; seed = 12 };
      trace = Some trace;
      on_complete = None;
      check = true;
    }
  in
  let report = Server.run inst cfg in
  let completed =
    List.fold_left
      (fun acc (tr : Server.tenant_report) -> acc + tr.Server.completed)
      0 report.Server.tenant_reports
  in
  Alcotest.(check bool) "jobs completed" true (completed > 0);
  let quanta = ref 0 and on_accel = ref 0 in
  List.iter
    (function
      | Engine.Trace.Quantum { core; _ } ->
          incr quanta;
          if List.mem core accel_cores then incr on_accel
      | _ -> ())
    (Engine.Trace.events trace);
  Alcotest.(check bool) "saw quanta" true (!quanta > 0);
  Alcotest.(check int) "no OLAP quantum on the accel chiplet" 0 !on_accel

let () =
  Alcotest.run "taskgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "generator deterministic" `Quick
            test_generator_deterministic;
          Alcotest.test_case "generator shapes" `Quick test_generator_shapes;
        ] );
      ( "mapper",
        [
          Alcotest.test_case "blind round-robins" `Quick test_blind_round_robin;
          Alcotest.test_case "usable validation" `Quick
            test_mapper_usable_validation;
          Alcotest.test_case "comm-aware cuts less" `Quick
            test_comm_aware_cuts_less;
        ] );
      ( "exec",
        [
          Alcotest.test_case "runs under invariants" `Quick
            test_exec_runs_under_invariants;
          Alcotest.test_case "deterministic" `Quick test_exec_deterministic;
          Alcotest.test_case "rejects short mapping" `Quick
            test_exec_rejects_short_mapping;
        ] );
      ( "accel",
        [
          Alcotest.test_case "chiplet flags" `Quick test_accel_chiplet_flags;
          Alcotest.test_case "gang avoids accel" `Quick test_gang_avoids_accel;
          Alcotest.test_case "OLAP serving avoids accel" `Quick
            test_olap_serving_avoids_accel;
        ] );
    ]
