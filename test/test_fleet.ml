(* The fleet tier: router determinism, relocation semantics, the router's
   offline floor, and the planted-bug invariant gates. *)

module Sys_ = Harness.Systems
module Server = Serving.Server
module Cluster = Fleet.Cluster
module Router = Fleet.Router
module Schedule = Faults.Schedule

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let base_config ?(jobs = 12) ?(rate = 8000.0) ~seed () =
  let base = Cluster.default_config ~seed in
  let serve = base.Cluster.serve in
  let tenants =
    List.map
      (fun t ->
        {
          t with
          Server.process = Serving.Arrivals.Open_loop { rate_per_s = rate };
          jobs;
        })
      serve.Server.tenants
  in
  {
    base with
    Cluster.n_workers = 8;
    serve = { serve with Server.tenants; check = true };
  }

let topo = Sys_.topology Sys_.Amd_milan ~cache_scale:16

(* mild faults barely dent a 128-core machine's online capacity, so the
   degradation scenarios throttle every core — heavy enough to cross the
   relocation threshold *)
let quarter_speed_everywhere ~at_us =
  List.init (Chipsim.Topology.num_cores topo) (fun core ->
      {
        Schedule.at_ns = at_us *. 1e3;
        kind = Schedule.Dvfs { core; speed = 0.2 };
      })

let all_cores_off =
  List.init (Chipsim.Topology.num_cores topo) (fun core ->
      { Schedule.at_ns = 0.0; kind = Schedule.Core_off core })

(* -- determinism -------------------------------------------------------- *)

let test_router_determinism () =
  List.iter
    (fun policy ->
      let run () =
        let cfg =
          { (base_config ~jobs:8 ~seed:7 ()) with Cluster.policy }
        in
        let res = Cluster.run cfg in
        (res.Cluster.placement_log, Cluster.result_to_json res)
      in
      let log1, json1 = run () in
      let log2, json2 = run () in
      Alcotest.(check string)
        (Router.policy_name policy ^ " placement log byte-identical")
        log1 log2;
      Alcotest.(check string)
        (Router.policy_name policy ^ " result json byte-identical")
        json1 json2)
    Router.all_policies

let test_seed_changes_placement () =
  let log seed =
    (Cluster.run (base_config ~jobs:8 ~seed ())).Cluster.placement_log
  in
  Alcotest.(check bool) "different seeds, different logs" true
    (log 7 <> log 8)

(* -- relocation --------------------------------------------------------- *)

let sum_tenants f (sr : Cluster.shard_result) =
  List.fold_left
    (fun acc (tr : Server.tenant_report) -> acc + f tr)
    0 sr.Cluster.report.Server.tenant_reports

let test_relocation_drains_degraded_only () =
  let cfg =
    {
      (base_config ~jobs:20 ~rate:12_000.0 ~seed:11 ()) with
      Cluster.faults = [ (0, quarter_speed_everywhere ~at_us:150.0) ];
    }
  in
  let res = Cluster.run cfg in
  Alcotest.(check bool) "relocations happened" true (res.Cluster.relocations > 0);
  List.iter
    (fun (sr : Cluster.shard_result) ->
      let out = sum_tenants (fun tr -> tr.Server.relocated_out) sr in
      let in_ = sum_tenants (fun tr -> tr.Server.relocated_in) sr in
      if sr.Cluster.shard = 0 then begin
        Alcotest.(check bool) "degraded shard drained" true (out > 0);
        Alcotest.(check int) "nothing relocated onto the degraded shard" 0 in_
      end
      else begin
        Alcotest.(check int)
          (Printf.sprintf "healthy shard %d not drained" sr.Cluster.shard)
          0 out;
        Alcotest.(check bool) "healthy shard absorbed the drain" true (in_ > 0)
      end)
    res.Cluster.shard_results;
  (* relocation must not lose jobs: the conservation checks already ran
     inside [Cluster.run] (serve.check), re-run them on the final result *)
  Cluster.check_result res

let test_no_relocation_flag () =
  let cfg =
    {
      (base_config ~jobs:20 ~rate:12_000.0 ~seed:11 ()) with
      Cluster.faults = [ (0, quarter_speed_everywhere ~at_us:150.0) ];
      relocation = false;
    }
  in
  let res = Cluster.run cfg in
  Alcotest.(check int) "no relocations when disabled" 0 res.Cluster.relocations

(* -- the router's offline floor ----------------------------------------- *)

let test_router_skips_offline_shard () =
  let cfg =
    {
      (base_config ~jobs:10 ~seed:5 ()) with
      Cluster.faults = [ (1, all_cores_off) ];
    }
  in
  let res = Cluster.run cfg in
  List.iter
    (fun (sr : Cluster.shard_result) ->
      if sr.Cluster.shard = 1 then
        Alcotest.(check int) "offline shard receives nothing" 0
          sr.Cluster.placed)
    res.Cluster.shard_results;
  Alcotest.(check int) "nothing shed at the router (shard 0 is up)" 0
    res.Cluster.router_shed

(* -- planted bugs: the invariants must catch them ----------------------- *)

(* a plant is a fault event: the shard whose schedule carries it arms it *)
let plant p = { Schedule.at_ns = 0.0; kind = Schedule.Plant p }

let test_plant_drop_relocated_trips () =
  let cfg =
    {
      (base_config ~jobs:20 ~rate:12_000.0 ~seed:11 ()) with
      Cluster.faults =
        [ (0, quarter_speed_everywhere ~at_us:150.0 @ [ plant Chipsim.Invariant.Drop_relocated ]) ];
    }
  in
  match Cluster.run cfg with
  | _ -> Alcotest.fail "planted drop-relocated bug was not caught"
  | exception Chipsim.Invariant.Violation msg ->
      Alcotest.(check bool)
        ("conservation message names the router: " ^ msg)
        true
        (contains msg "router")

let test_plant_route_offline_trips () =
  let cfg =
    {
      (base_config ~jobs:10 ~seed:5 ()) with
      Cluster.faults = [ (1, all_cores_off @ [ plant Chipsim.Invariant.Route_offline ]) ];
    }
  in
  match Cluster.run cfg with
  | _ -> Alcotest.fail "planted route-offline bug was not caught"
  | exception Chipsim.Invariant.Violation msg ->
      Alcotest.(check bool)
        ("message names the offline placement: " ^ msg)
        true
        (contains msg "fully-offline")

(* the router asks the offline shard it would aim at, so the bug armed on
   an online shard changes nothing *)
let test_plant_route_offline_on_online_shard () =
  let run faults =
    let res = Cluster.run { (base_config ~jobs:10 ~seed:5 ()) with Cluster.faults } in
    (res.Cluster.placement_log, Cluster.result_to_json res)
  in
  let honest = run [ (1, all_cores_off) ] in
  let planted = run [ (1, all_cores_off); (0, [ plant Chipsim.Invariant.Route_offline ]) ] in
  Alcotest.(check string) "same placements" (fst honest) (fst planted);
  Alcotest.(check string) "same report" (snd honest) (snd planted)

(* -- the EWMA policy ----------------------------------------------------- *)

let fresh_views () =
  [|
    { Router.shard = 0; capacity = 1.0; sick_fraction = 0.0; load_ns = 0.0; depth = 0 };
    { Router.shard = 1; capacity = 1.0; sick_fraction = 0.0; load_ns = 0.0; depth = 0 };
  |]

let test_ewma_observe_math () =
  let r = Router.create Router.Ewma in
  Alcotest.(check (float 0.0)) "zero before any observation" 0.0
    (Router.observed_latency r ~shard:0);
  Router.observe r ~shard:0 ~service_ns:1000.0;
  Alcotest.(check (float 1e-6)) "first sample taken raw" 1000.0
    (Router.observed_latency r ~shard:0);
  Router.observe r ~shard:0 ~service_ns:2000.0;
  Alcotest.(check (float 1e-6)) "then a 0.2 blend" 1200.0
    (Router.observed_latency r ~shard:0);
  Router.observe r ~shard:0 ~service_ns:(-5.0);
  Alcotest.(check (float 1e-6)) "negative samples ignored" 1200.0
    (Router.observed_latency r ~shard:0);
  Alcotest.(check (float 0.0)) "other shards unaffected" 0.0
    (Router.observed_latency r ~shard:1)

let test_ewma_choice () =
  let r = Router.create Router.Ewma in
  Alcotest.(check (option int)) "unobserved tie goes to the lowest shard"
    (Some 0)
    (Router.choose r ~tenant:"t" ~cost:1000.0 (fresh_views ()));
  Router.observe r ~shard:0 ~service_ns:5000.0;
  Alcotest.(check (option int)) "unobserved shard explored first" (Some 1)
    (Router.choose r ~tenant:"t" ~cost:1000.0 (fresh_views ()));
  Router.observe r ~shard:1 ~service_ns:1000.0;
  Alcotest.(check (option int)) "lower EWMA wins at equal depth" (Some 1)
    (Router.choose r ~tenant:"t" ~cost:1000.0 (fresh_views ()));
  (* a deep enough queue on the fast shard flips the choice:
     5000*(1+0) < 1000*(1+10) *)
  let v = fresh_views () in
  v.(1).Router.depth <- 10;
  Alcotest.(check (option int)) "queue depth scales the score" (Some 0)
    (Router.choose r ~tenant:"t" ~cost:1000.0 v)

let test_ewma_avoids_slow_shard () =
  (* shard 0 limps at 20% speed from t=0; the EWMA router should learn
     that from completions alone and steer more jobs to shard 1 than
     blind round-robin does, with relocation disabled so routing is the
     only mechanism in play *)
  let submitted_to_shard_0 policy =
    let cfg =
      {
        (base_config ~jobs:24 ~rate:12_000.0 ~seed:13 ()) with
        Cluster.policy;
        faults = [ (0, quarter_speed_everywhere ~at_us:0.0) ];
        relocation = false;
      }
    in
    let res = Cluster.run cfg in
    let sr =
      List.find
        (fun (sr : Cluster.shard_result) -> sr.Cluster.shard = 0)
        res.Cluster.shard_results
    in
    sum_tenants (fun tr -> tr.Server.submitted) sr
  in
  let rr = submitted_to_shard_0 Router.Round_robin in
  let ewma = submitted_to_shard_0 Router.Ewma in
  Alcotest.(check bool)
    (Printf.sprintf "ewma sends fewer jobs (%d) to the slow shard than \
                     round-robin (%d)" ewma rr)
    true (ewma < rr)

(* -- merged observability ----------------------------------------------- *)

let test_merged_registry_counters () =
  let res = Cluster.run (base_config ~jobs:8 ~seed:3 ()) in
  let reg = res.Cluster.registry in
  Alcotest.(check int) "fleet.submitted mirrors the router ledger"
    res.Cluster.router_submitted
    (Serving.Metrics.counter_value reg "fleet.submitted");
  Alcotest.(check int) "merged completions cover every arrival"
    res.Cluster.router_submitted
    (Serving.Metrics.counter_value reg "serve.completed"
    + Serving.Metrics.counter_value reg "serve.shed"
    + res.Cluster.router_shed);
  Alcotest.(check int) "fleet latency histogram counts completions"
    (Serving.Metrics.counter_value reg "serve.completed")
    (Serving.Histogram.count res.Cluster.fleet_latency)

(* a traced three-shard run merges into one file with the router's
   routing events and a track per machine: pid 0 plus one per shard *)
let test_merged_trace_tracks () =
  let res = Cluster.run { (base_config ~jobs:5 ~seed:7 ()) with Cluster.n_shards = 3; trace = true } in
  let json = Engine.Trace.to_chrome_json res.Cluster.traces in
  Alcotest.(check bool) "fleet routing events" true (contains json {|"cat":"fleet"|});
  let pids =
    List.filter (fun pid -> contains json (Printf.sprintf {|"pid":%d,|} pid)) (List.init 8 Fun.id)
  in
  Alcotest.(check (list int)) "router and shard tracks" [ 0; 1; 2; 3 ] pids

(* -- datasets shared across shards -------------------------------------- *)

(* A fresh machine of [kind] whose shared allocator also records every
   region it hands out, in order. *)
let logged_env kind =
  let env = (Sys_.make Sys_.Charm kind ~n_workers:4 ()).Sys_.env in
  let log = ref [] in
  let alloc_shared ~elt_bytes ~count =
    let r = env.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
    log := r :: !log;
    r
  in
  ({ env with Workloads.Exec_env.alloc_shared }, fun () -> List.rev !log)

let topology_file name =
  match Sys_.custom_machine_of_spec ("../examples/topologies/" ^ name ^ ".topo") with
  | Ok m -> m
  | Error msg -> Alcotest.fail msg

(* Placing a built dataset on a fresh machine gives the regions building
   it there gives (base, length, element size and policy, in allocation
   order) and shares the host arrays instead of copying them. *)
let test_placed_datasets_match_built () =
  let same_regions what built placed =
    if built <> placed then Alcotest.failf "%s: placed regions differ from built ones" what
  in
  List.iter
    (fun (name, kind) ->
      let what s = name ^ ": " ^ s in
      let env_a, log_a = logged_env kind and env_b, log_b = logged_env kind in
      let g =
        Workloads.Csr.of_kronecker ~alloc:env_a.Workloads.Exec_env.alloc_shared
          (Workloads.Kronecker.generate ~seed:3 ~scale:8 ~edge_factor:8 ())
      in
      let d = Olap.Tpch_data.generate ~alloc:env_a.Workloads.Exec_env.alloc_shared ~sf:0.002 () in
      let g' = Workloads.Csr.place ~alloc:env_b.Workloads.Exec_env.alloc_shared g in
      let d' = Olap.Tpch_data.place ~alloc:env_b.Workloads.Exec_env.alloc_shared d in
      same_regions (what "CSR and TPC-H") (log_a ()) (log_b ());
      Alcotest.(check bool) (what "CSR regions") true
        Workloads.Csr.(g.sim_row = g'.sim_row && g.sim_col = g'.sim_col && g.sim_weight = g'.sim_weight);
      Alcotest.(check bool) (what "CSR arrays shared") true
        Workloads.Csr.(g.row_ptr == g'.row_ptr && g.col == g'.col && g.weight == g'.weight);
      List.iter
        (fun (table, col) ->
          let c = Olap.Table.col (table d) col and c' = Olap.Table.col (table d') col in
          Alcotest.(check bool) (what (col ^ " region")) true (Olap.Column.sim c = Olap.Column.sim c');
          Alcotest.(check bool) (what (col ^ " values shared")) true
            (match (c, c') with
            | Olap.Column.Ints { data; _ }, Olap.Column.Ints { data = data'; _ } -> data == data'
            | Olap.Column.Floats { data; _ }, Olap.Column.Floats { data = data'; _ } -> data == data'
            | _ -> false))
        Olap.Tpch_data.
          [
            ((fun t -> t.region), "r_regionkey"); ((fun t -> t.nation), "n_name");
            ((fun t -> t.supplier), "s_acctbal"); ((fun t -> t.customer), "c_custkey");
            ((fun t -> t.part), "p_retailprice"); ((fun t -> t.partsupp), "ps_partkey");
            ((fun t -> t.orders), "o_orderstatus"); ((fun t -> t.lineitem), "l_orderkey");
            ((fun t -> t.lineitem), "l_shipinstruct");
          ];
      (* a shard's whole data set: prepared on one machine, placed on
         another *)
      let env_a, log_a = logged_env kind and env_b, log_b = logged_env kind in
      let data = Serving.Job.prepare env_a Serving.Job.default_data_config in
      ignore (Serving.Job.place env_b data : Serving.Job.data);
      same_regions (what "Job data") (log_a ()) (log_b ()))
    [
      ("amd", Sys_.Amd_milan);
      ("tiny-hetero", topology_file "tiny-hetero");
      ("biglittle", topology_file "biglittle");
    ]

(* A four-shard fleet over both hand-written heterogeneous machines, with
   the three tenant shapes that touch every shared dataset: DAG jobs, OLAP
   queries over the TPC-H columns and a 3-way replicated graph tenant over
   the CSR.  The digest was recorded when every shard still generated its
   own datasets; placing shard 0's on the others must not move it. *)
let hetero_fleet_config () =
  let base = Cluster.default_config ~seed:11 in
  let tenant name mix replicas =
    {
      Server.name;
      weight = 1.0;
      slo_factor = 3.0;
      process = Serving.Arrivals.Open_loop { rate_per_s = 4000.0 };
      jobs = 6;
      mix = List.map (fun kind -> (kind, 1)) mix;
      replicas;
    }
  in
  {
    base with
    Cluster.n_shards = 4;
    machines = [ topology_file "tiny-hetero"; topology_file "biglittle" ];
    n_workers = 6;
    serve =
      {
        base.Cluster.serve with
        Server.tenants =
          [
            tenant "infer" [ Serving.Job.Dag (Taskgraph.Graph.Inception, 4) ] 1;
            tenant "olap" [ Serving.Job.Tpch 1; Serving.Job.Tpch 6 ] 1;
            tenant "graph" [ Serving.Job.Bfs; Serving.Job.Pagerank ] 3;
          ];
        data = { Serving.Job.default_data_config with Serving.Job.graph_scale = 8; seed = 5 };
        check = true;
      };
  }

let test_hetero_fleet_digest () =
  let res = Cluster.run (hetero_fleet_config ()) in
  Alcotest.(check string) "4-shard hetero fleet digest"
    "8ef8c8bc3bb3f23c99ae6b7c94569001"
    (Digest.to_hex
       (Digest.string (Cluster.result_to_json res ^ res.Cluster.placement_log)))

let () =
  Alcotest.run "fleet"
    [
      ( "fleet",
        [
          Alcotest.test_case "router determinism" `Quick test_router_determinism;
          Alcotest.test_case "seed changes placement" `Quick
            test_seed_changes_placement;
          Alcotest.test_case "relocation drains degraded only" `Quick
            test_relocation_drains_degraded_only;
          Alcotest.test_case "no-relocation flag" `Quick test_no_relocation_flag;
          Alcotest.test_case "router skips offline shard" `Quick
            test_router_skips_offline_shard;
          Alcotest.test_case "planted drop-relocated trips" `Quick
            test_plant_drop_relocated_trips;
          Alcotest.test_case "planted route-offline trips" `Quick
            test_plant_route_offline_trips;
          Alcotest.test_case "route-offline on an online shard is inert" `Quick
            test_plant_route_offline_on_online_shard;
          Alcotest.test_case "ewma observe math" `Quick test_ewma_observe_math;
          Alcotest.test_case "ewma choice" `Quick test_ewma_choice;
          Alcotest.test_case "ewma avoids slow shard" `Quick
            test_ewma_avoids_slow_shard;
          Alcotest.test_case "merged registry counters" `Quick
            test_merged_registry_counters;
          Alcotest.test_case "merged trace tracks" `Quick test_merged_trace_tracks;
          Alcotest.test_case "placed datasets match built ones" `Quick
            test_placed_datasets_match_built;
          Alcotest.test_case "hetero fleet digest" `Quick test_hetero_fleet_digest;
        ] );
    ]
