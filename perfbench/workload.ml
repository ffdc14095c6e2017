(* The three benchmark workloads.

   One repetition of a workload is a fixed number of independent trials,
   each on a fresh simulated machine with caches cold and nothing
   memoised from an earlier trial or repetition.  A trial times its
   set-up and its one simulation call separately, checks its outputs
   against ground truth the simulator already holds, and reads the
   layers' own counters; the repetition sums the trials and pools their
   per-operation latencies.  Pooling several datasets is what keeps the
   simulated tail latencies comparable from one seed to the next.

   [--seed] generates every trial's datasets.  A serving trial replays a
   fixed arrival trace (arrival instants, job kinds, per-job seeds), and
   the fleet's fault schedule is timed against it: over seeds, a seeded
   trace moved tail latency twice as much as a seeded dataset.  Only
   public entry points of the simulator are called. *)

open Chipsim
module Sys_ = Harness.Systems
module Sched = Engine.Sched
module Server = Serving.Server
module Job = Serving.Job
module Histogram = Serving.Histogram
module Metrics = Serving.Metrics
module Cluster = Fleet.Cluster

let now = Unix.gettimeofday
let cache_scale = 16

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* a simulation call starts on a collected heap, so that collecting the
   set-up's garbage is not billed to it *)
let timed_run f =
  Gc.full_major ();
  timed f

let trial_seed ~seed k = (seed * 16) + k
let trace_seed k = 42 + k

(* one trial; a repetition has the same shape, summed over its trials *)
type rep = {
  setup_machine_s : float;
  setup_data_s : float;
  wall_s : float;  (** the simulation calls alone *)
  report_s : float;  (** rendering the reports *)
  alloc_words : float;  (** words allocated during the simulation calls *)
  events : int;  (** accesses + context switches + steals + migrations *)
  makespan_ns : float;  (** virtual time, summed over trials *)
  sojourn_ns : float list;
      (** per operation (job sojourn, or kernel span on batch-graph); empty
          where only a traced run can supply them *)
  latency_sum_ns : float;  (** the layers' own sum of those latencies *)
  within_slo : int;  (** operations done correctly within their SLO *)
  counts : (string * int) list;  (** catalogue counts plus [aux.*] *)
  queue_wait : Histogram.t;
  fingerprint : string;  (** deterministic report text, no host fields *)
  attempted : int;
  failed : int;
  failures : string list;
}

type traced = {
  t_wall_s : float;
  by_category : (string * int) list;
  dropped : int;
  t_counts : (string * int) list;  (** counts only the trace can supply *)
}

type t = {
  name : string;
  rep : seed:int -> rep;
  check_run : seed:int -> float list;
      (** all trials again with the executable invariants on (raises
          [Invariant.Violation]); returns the pooled per-operation
          latencies when the workload needs a trace to see them *)
  traced_run : seed:int -> capacity:int -> traced;
}

(* -- aggregation ------------------------------------------------------------ *)

(* a negative count means "not observable from outside" and stays so *)
let add_counts a b =
  List.map2
    (fun (k, x) (k', y) ->
      assert (k = k');
      (k, if x < 0 || y < 0 then -1 else x + y))
    a b

let combine a b =
  let h = Histogram.create () in
  Histogram.merge h a.queue_wait;
  Histogram.merge h b.queue_wait;
  {
    setup_machine_s = a.setup_machine_s +. b.setup_machine_s;
    setup_data_s = a.setup_data_s +. b.setup_data_s;
    wall_s = a.wall_s +. b.wall_s;
    report_s = a.report_s +. b.report_s;
    alloc_words = a.alloc_words +. b.alloc_words;
    events = a.events + b.events;
    makespan_ns = a.makespan_ns +. b.makespan_ns;
    sojourn_ns = a.sojourn_ns @ b.sojourn_ns;
    latency_sum_ns = a.latency_sum_ns +. b.latency_sum_ns;
    within_slo = a.within_slo + b.within_slo;
    counts = add_counts a.counts b.counts;
    queue_wait = h;
    fingerprint = a.fingerprint ^ "\n" ^ b.fingerprint;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    failures = a.failures @ b.failures;
  }

let trials n f ~seed =
  let rec go k acc = if k >= n then acc else go (k + 1) (combine acc (f ~k ~seed)) in
  go 1 (f ~k:0 ~seed)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let checks l = List.filter_map (fun (ok, what) -> if ok then None else Some what) l

(* -- counters --------------------------------------------------------------- *)

let events_of m =
  let pmu = Machine.pmu m in
  Machine.accesses m
  + Pmu.total pmu Pmu.Context_switch
  + Pmu.total pmu Pmu.Task_stolen
  + Pmu.total pmu Pmu.Migration

let engine_counts (s : Engine.Stats.report) =
  let a = s.Engine.Stats.accesses in
  [
    ("count.access.l2_hit", a.Engine.Stats.l2_hits);
    ("count.access.l3_local", a.Engine.Stats.local_chiplet);
    ("count.access.remote_chiplet", a.Engine.Stats.remote_chiplet);
    ("count.access.remote_numa", a.Engine.Stats.remote_numa);
    ("count.access.dram", a.Engine.Stats.dram);
    ("count.invalidations", a.Engine.Stats.invalidations);
    ("count.quanta", s.Engine.Stats.context_switches);
    ("count.steals", s.Engine.Stats.tasks_stolen);
    ("count.migrations", s.Engine.Stats.migrations);
    ("count.tasks", s.Engine.Stats.tasks_executed);
    (* a task's first quantum is billed with its spawn *)
    ("aux.requeued_quanta", s.Engine.Stats.context_switches - s.Engine.Stats.tasks_executed);
  ]

(* the remaining counts, in one fixed order; absent ones are 0 *)
let other_counts kvs =
  List.map
    (fun k -> (k, Option.value ~default:0 (List.assoc_opt k kvs)))
    [
      "count.policy_ticks"; "count.jobs"; "count.epochs"; "count.routes";
      "count.relocations"; "count.dag_nodes"; "count.transfer_bytes";
      "aux.power_cap_ticks"; "aux.replica_groups"; "aux.policy_applied";
      "aux.policy_skipped"; "aux.submitted"; "aux.admitted"; "aux.masked";
      "aux.armed"; "aux.transfers"; "aux.served_quanta";
    ]

let policy_counts inst =
  match inst.Sys_.charm with
  | None -> failwith "workload: not a CHARM instance"
  | Some rt ->
      let s = Charm.Policy.stats (Charm.Runtime.policy rt) in
      [
        ("count.policy_ticks", s.Charm.Policy.ticks);
        ("aux.policy_applied", s.Charm.Policy.migrations);
        ("aux.policy_skipped", s.Charm.Policy.skipped);
      ]

let category = function
  | Engine.Trace.Quantum _ -> Some "quantum"
  | Engine.Trace.Steal _ -> Some "steal"
  | Engine.Trace.Park _ -> Some "park"
  | Engine.Trace.Job _ -> Some "job"
  | Engine.Trace.Fleet _ -> Some "fleet"
  | Engine.Trace.Dag_node _ -> Some "dag"
  | _ -> None

let count_categories traces =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun tr ->
      List.iter
        (fun e ->
          Option.iter
            (fun c -> Hashtbl.replace tally c (1 + Option.value ~default:0 (Hashtbl.find_opt tally c)))
            (category e))
        (Engine.Trace.events tr))
    traces;
  List.map (fun c -> (c, Option.value ~default:0 (Hashtbl.find_opt tally c))) Metric.trace_categories

let add_categories a b = List.map2 (fun (c, x) (_, y) -> (c, x + y)) a b

(* -- batch-graph ------------------------------------------------------------ *)

(* CHARM on the 2-socket Milan with 32 workers runs BFS -> PageRank -> CC
   -> SSSP over one Kronecker graph per trial, each kernel starting when
   the previous one ends (closed loop, one client). *)
let graph_trials = 6
let graph_scale = 12
let graph_workers = 32

type graph_setup = {
  inst : Sys_.instance;
  g : Workloads.Csr.t;
  gw : Workloads.Csr.t;
  machine_s : float;
  data_s : float;
}

let graph_setup ~seed ~check =
  let inst, machine_s =
    timed (fun () -> Sys_.make ~cache_scale Sys_.Charm Sys_.Amd_milan ~n_workers:graph_workers ())
  in
  if check then Sched.set_check inst.Sys_.env.Workloads.Exec_env.sched true;
  let (g, gw), data_s =
    timed (fun () ->
        let kron = Workloads.Kronecker.generate ~seed ~scale:graph_scale ~edge_factor:16 () in
        let alloc ~elt_bytes ~count = inst.Sys_.env.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
        ( Workloads.Csr.of_kronecker ~alloc ~seed kron,
          Workloads.Csr.of_kronecker ~alloc ~weighted:true ~seed kron ))
  in
  { inst; g; gw; machine_s; data_s }

(* a traversal source must have edges (vertex 0 may be isolated) *)
let pick_source g =
  let rec go v = if v >= g.Workloads.Csr.n - 1 || Workloads.Csr.degree g v > 0 then v else go (v + 1) in
  go 0

let graph_kernels s =
  let env = s.inst.Sys_.env in
  let source = pick_source s.g in
  let levels, r_bfs = Workloads.Bfs.run env s.g ~source in
  let ranks, r_pr = Workloads.Pagerank.run env s.g () in
  let labels, r_cc = Workloads.Concomp.run env s.g in
  let dist, r_sssp = Workloads.Sssp.run env s.gw ~source in
  let spans = List.map (fun r -> r.Workloads.Workload_result.makespan_ns) [ r_bfs; r_pr; r_cc; r_sssp ] in
  (source, levels, ranks, labels, dist, spans)

(* same partition: the two labelings map onto each other one-to-one *)
let same_partition a b =
  Array.length a = Array.length b
  &&
  let fwd = Hashtbl.create 64 and bwd = Hashtbl.create 64 in
  let agree tbl x y =
    match Hashtbl.find_opt tbl x with
    | Some y' -> y' = y
    | None ->
        Hashtbl.add tbl x y;
        true
  in
  let ok = ref true in
  Array.iteri (fun v la -> if not (agree fwd la b.(v) && agree bwd b.(v) la) then ok := false) a;
  !ok

let ranks_close a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-9 +. (1e-6 *. Float.abs y)) a b

let graph_trial ~k ~seed =
  let s = graph_setup ~seed:(trial_seed ~seed k) ~check:false in
  let w0 = words () in
  let (source, levels, ranks, labels, dist, spans), wall_s = timed_run (fun () -> graph_kernels s) in
  let alloc_words = words () -. w0 in
  let m = s.inst.Sys_.machine in
  let report, report_s = timed (fun () -> Format.asprintf "%a" Engine.Stats.pp (Sys_.report s.inst)) in
  let failures =
    checks
      [
        (levels = Workloads.Bfs.reference s.g ~source, "bfs levels differ from Bfs.reference");
        (ranks_close ranks (Workloads.Pagerank.reference s.g ()), "pagerank ranks outside tolerance");
        (same_partition labels (Workloads.Concomp.reference s.g), "cc partition differs from Concomp.reference");
        (dist = Workloads.Sssp.reference s.gw ~source, "sssp distances differ from Sssp.reference");
      ]
  in
  let makespan_ns = List.fold_left ( +. ) 0.0 spans in
  {
    setup_machine_s = s.machine_s;
    setup_data_s = s.data_s;
    wall_s;
    report_s;
    alloc_words;
    events = events_of m;
    makespan_ns;
    sojourn_ns = spans;
    latency_sum_ns = makespan_ns;
    within_slo = List.length spans - List.length failures;
    counts =
      engine_counts (Sys_.report s.inst)
      @ other_counts (("count.transfer_bytes", Machine.transferred_bytes m) :: policy_counts s.inst);
    queue_wait = Histogram.create ();
    fingerprint = String.concat ";" (report :: List.map (Printf.sprintf "%h") spans);
    attempted = List.length spans;
    failed = List.length failures;
    failures;
  }

let batch_graph =
  {
    name = "batch-graph";
    rep = trials graph_trials graph_trial;
    check_run =
      (fun ~seed ->
        for k = 0 to graph_trials - 1 do
          let s = graph_setup ~seed:(trial_seed ~seed k) ~check:true in
          ignore (graph_kernels s);
          Sched.check_quiescent s.inst.Sys_.env.Workloads.Exec_env.sched;
          Machine.check_invariants_full s.inst.Sys_.machine
        done;
        []);
    traced_run =
      (fun ~seed ~capacity ->
        List.fold_left
          (fun acc k ->
            let s = graph_setup ~seed:(trial_seed ~seed k) ~check:false in
            let tr = Engine.Trace.create ~capacity () in
            (match s.inst.Sys_.charm with Some rt -> Charm.Runtime.attach_trace rt tr | None -> ());
            let _, w = timed_run (fun () -> graph_kernels s) in
            {
              acc with
              t_wall_s = acc.t_wall_s +. w;
              by_category = add_categories acc.by_category (count_categories [ tr ]);
              dropped = acc.dropped + Engine.Trace.dropped tr;
            })
          { t_wall_s = 0.0; by_category = count_categories []; dropped = 0; t_counts = [] }
          (List.init graph_trials Fun.id));
  }

(* -- serving checks shared by serve-milan and fleet-hetero ------------------ *)

(* conservation per tenant: submitted = admitted + shed, completed +
   relocated-out = admitted, one latency sample per completion *)
let tenant_failures ~where (trs : Server.tenant_report list) =
  List.concat_map
    (fun (tr : Server.tenant_report) ->
      List.map
        (Printf.sprintf "%s tenant %s: %s" where tr.Server.tenant)
        (checks
           [
             (tr.Server.submitted = tr.Server.admitted + tr.Server.shed, "submitted <> admitted + shed");
             (tr.Server.completed + tr.Server.relocated_out = tr.Server.admitted, "completed <> admitted");
             (Histogram.count tr.Server.latency = tr.Server.completed, "latency samples <> completed");
           ]))
    trs

let queue_waits (trs : Server.tenant_report list) =
  let h = Histogram.create () in
  List.iter (fun (tr : Server.tenant_report) -> Histogram.merge h tr.Server.queue_wait) trs;
  h

let within_slo (trs : Server.tenant_report list) =
  sum (fun (tr : Server.tenant_report) -> tr.Server.completed - tr.Server.slo_violations) trs

let completed (trs : Server.tenant_report list) =
  sum (fun (tr : Server.tenant_report) -> tr.Server.completed) trs

let shed (trs : Server.tenant_report list) = sum (fun (tr : Server.tenant_report) -> tr.Server.shed) trs

(* -- serve-milan ------------------------------------------------------------- *)

(* The three default tenants (graph, OLAP, OLTP+GUPS) on the 2-socket
   Milan with 16 workers, open loop at 5,000 jobs/s each, up to 16 jobs in
   service; energy metering on and a power cap far above peak, so the cap
   controller ticks at every quantum without ever actuating. *)
let serve_trials = 12
let serve_jobs_per_tenant = 100
let serve_workers = 16
let serve_rate = 5000.0
let serve_inflight = 16
let serve_cap_mw = 100_000.0

let serve_config ~k ~seed ~check ~trace ~on_complete =
  let base = Server.default_config ~seed:(trace_seed k) in
  {
    base with
    Server.tenants =
      List.map
        (fun (t : Server.tenant_config) ->
          {
            t with
            Server.jobs = serve_jobs_per_tenant;
            process = Serving.Arrivals.Open_loop { rate_per_s = serve_rate };
          })
        base.Server.tenants;
    max_inflight = serve_inflight;
    data = { Job.default_data_config with Job.seed = trial_seed ~seed k };
    trace;
    on_complete;
    check;
  }

let serve_instance () =
  let inst =
    Sys_.make ~cache_scale
      ~charm_config:{ Charm.Config.default with Charm.Config.power_cap_mw = serve_cap_mw }
      Sys_.Charm Sys_.Amd_milan ~n_workers:serve_workers ()
  in
  Sched.set_energy inst.Sys_.env.Workloads.Exec_env.sched true;
  inst

(* Server.run prepares its datasets itself; the set-up cost a user pays
   for them is timed on a twin instance, so the measured run is untouched *)
let serve_setup ~k ~seed =
  let inst, machine_s = timed serve_instance in
  let twin = serve_instance () in
  let cfg = serve_config ~k ~seed ~check:false ~trace:None ~on_complete:None in
  let _, data_s = timed (fun () -> Job.prepare twin.Sys_.env cfg.Server.data) in
  (inst, machine_s, data_s)

let serve_trial ~k ~seed =
  let inst, machine_s, data_s = serve_setup ~k ~seed in
  let sojourn = ref [] in
  let on_complete ~tenant:_ ~kind:_ ~submit_ns ~finish_ns =
    sojourn := (finish_ns -. submit_ns) :: !sojourn
  in
  let cfg = serve_config ~k ~seed ~check:false ~trace:None ~on_complete:(Some on_complete) in
  let w0 = words () in
  let r, wall_s = timed_run (fun () -> Server.run inst cfg) in
  let alloc_words = words () -. w0 in
  let json, report_s = timed (fun () -> Server.report_to_json r) in
  let trs = r.Server.tenant_reports in
  let reg = r.Server.registry in
  let m = inst.Sys_.machine in
  let cap_sheds =
    match inst.Sys_.charm with
    | Some rt -> Option.fold ~none:(-1) ~some:Charm.Power_cap.sheds (Charm.Runtime.power_cap rt)
    | None -> -1
  in
  let latency = Metrics.histogram reg "serve.latency_ns" in
  let failures =
    tenant_failures ~where:"serve" trs
    @ checks
        [
          (List.length !sojourn = completed trs, "completion callbacks <> completed");
          (List.for_all (fun x -> x >= 0.0) !sojourn, "negative sojourn time");
          (Histogram.count latency = completed trs, "registry latency samples <> completed");
          (cap_sheds = 0, "the power cap actuated (it must only tick)");
        ]
  in
  {
    setup_machine_s = machine_s;
    setup_data_s = data_s;
    wall_s;
    report_s;
    alloc_words;
    events = events_of m;
    makespan_ns = r.Server.makespan_ns;
    sojourn_ns = List.rev !sojourn;
    latency_sum_ns = Histogram.sum latency;
    within_slo = within_slo trs - List.length failures;
    counts =
      engine_counts r.Server.stats
      @ other_counts
          (policy_counts inst
          @ [
              ("count.jobs", completed trs);
              ("count.transfer_bytes", Machine.transferred_bytes m);
              (* the cap controller ticks, and the server counts, at every
                 quantum end *)
              ("aux.power_cap_ticks", Pmu.total (Machine.pmu m) Pmu.Context_switch);
              ("aux.served_quanta", r.Server.stats.Engine.Stats.context_switches);
              ("aux.replica_groups", Metrics.counter_value reg "serve.replica.groups");
              ("aux.submitted", Metrics.counter_value reg "serve.submitted");
              ("aux.admitted", Metrics.counter_value reg "serve.admitted");
              ("aux.masked", Metrics.counter_value reg "serve.replica.masked");
            ]);
    queue_wait = queue_waits trs;
    fingerprint = json;
    attempted = sum (fun (tr : Server.tenant_report) -> tr.Server.submitted) trs;
    failed = shed trs + List.length failures;
    failures;
  }

let serve_milan =
  {
    name = "serve-milan";
    rep = trials serve_trials serve_trial;
    check_run =
      (fun ~seed ->
        for k = 0 to serve_trials - 1 do
          ignore
            (Server.run (serve_instance ()) (serve_config ~k ~seed ~check:true ~trace:None ~on_complete:None)
              : Server.report)
        done;
        []);
    traced_run =
      (fun ~seed ~capacity ->
        List.fold_left
          (fun acc k ->
            let tr = Engine.Trace.create ~capacity () in
            let inst = serve_instance () in
            let cfg = serve_config ~k ~seed ~check:false ~trace:(Some tr) ~on_complete:None in
            let _, w = timed_run (fun () -> Server.run inst cfg) in
            {
              acc with
              t_wall_s = acc.t_wall_s +. w;
              by_category = add_categories acc.by_category (count_categories [ tr ]);
              dropped = acc.dropped + Engine.Trace.dropped tr;
            })
          { t_wall_s = 0.0; by_category = count_categories []; dropped = 0; t_counts = [] }
          (List.init serve_trials Fun.id));
  }

(* -- fleet-hetero ------------------------------------------------------------ *)

(* A 4-shard fleet alternating a small heterogeneous machine and a
   big.LITTLE machine, 6 CHARM workers per shard behind the charm-aware
   router, open loop at 1,000 jobs/s per tenant.  Tenants: DAG inference
   (comm-aware mapper), OLAP, and a graph tenant replicated 3 ways.  At
   2 ms every worker core of the first big.LITTLE shard goes offline, and
   one result corruption is armed on shard 0. *)
let fleet_trials = 6
let fleet_topologies = [ "examples/topologies/tiny-hetero.topo"; "examples/topologies/biglittle.topo" ]
let fleet_shards = 4
let fleet_workers = 6
let fleet_jobs_per_tenant = 56
let fleet_rate = 1000.0
let fleet_replicas = 3
let fleet_dag_layers = 6


let fleet_fault_specs =
  [
    (1, String.concat ";" (List.init fleet_workers (Printf.sprintf "2000:core-off:%d")));
    (0, "500:corrupt:7");
  ]

let corruptions_armed = 1

let fleet_machines () =
  List.map
    (fun path ->
      match Sys_.custom_machine_of_spec path with
      | Ok m -> m
      | Error msg -> failwith ("fleet-hetero: " ^ msg))
    fleet_topologies

let fleet_config ~k ~seed ~machines ~check ~trace =
  let base = Cluster.default_config ~seed:(trace_seed k) in
  let tenant name weight mix replicas =
    {
      Server.name;
      weight;
      slo_factor = 3.0;
      process = Serving.Arrivals.Open_loop { rate_per_s = fleet_rate };
      jobs = fleet_jobs_per_tenant;
      mix = List.map (fun kind -> (kind, 1)) mix;
      replicas;
    }
  in
  let dag shape = Job.Dag (shape, fleet_dag_layers) in
  let faults =
    List.map
      (fun (shard, spec) ->
        let kind = List.nth machines (shard mod List.length machines) in
        (shard, Faults.Schedule.parse_exn ~topo:(Sys_.topology kind ~cache_scale) spec))
      fleet_fault_specs
  in
  {
    base with
    Cluster.n_shards = fleet_shards;
    sys = Sys_.Charm;
    machines;
    n_workers = fleet_workers;
    cache_scale;
    policy = Fleet.Router.Charm_aware;
    faults;
    relocation = true;
    trace;
    serve =
      {
        base.Cluster.serve with
        Server.tenants =
          [
            tenant "infer" 2.0 Taskgraph.Graph.[ dag Chain; dag Inception; dag Fanout ] 1;
            tenant "olap" 1.0 [ Job.Tpch 1; Job.Tpch 3; Job.Tpch 6 ] 1;
            tenant "graph" 1.0 [ Job.Bfs; Job.Pagerank ] fleet_replicas;
          ];
        data = { Job.default_data_config with Job.seed = trial_seed ~seed k; dag_comm_aware = true };
        check;
      };
  }

(* Cluster.run builds its shards itself; the set-up a user pays (topology
   and fault parsing, one instance and one dataset per shard) is timed on
   twins of those shards *)
let fleet_setup ~k ~seed =
  let cfg, parse_s =
    timed (fun () -> fleet_config ~k ~seed ~machines:(fleet_machines ()) ~check:false ~trace:false)
  in
  let twins, make_s =
    timed (fun () ->
        List.init fleet_shards (fun s ->
            Sys_.make ~cache_scale Sys_.Charm
              (List.nth cfg.Cluster.machines (s mod List.length cfg.Cluster.machines))
              ~n_workers:fleet_workers ()))
  in
  let _, data_s =
    timed (fun () ->
        List.iter (fun inst -> ignore (Job.prepare inst.Sys_.env cfg.Cluster.serve.Server.data : Job.data)) twins)
  in
  (cfg, parse_s +. make_s, data_s)

(* the ground truth a vote must return: with one corrupted replica out of
   [fleet_replicas], the uncorrupted token, whichever replica was hit *)
let vote_masks_corruption () =
  let tok = Serving.Replica.token ~job_seed:12345 ~kind:"bfs" in
  let bad = Serving.Replica.corrupt tok ~seed:7 in
  List.for_all
    (fun victim ->
      Int64.equal (Serving.Replica.vote (Array.init fleet_replicas (fun r -> if r = victim then bad else tok))) tok)
    (List.init fleet_replicas Fun.id)

let shard_reports res = List.map (fun (sr : Cluster.shard_result) -> sr.Cluster.report) res.Cluster.shard_results

let fleet_trial ~k ~seed =
  let cfg, machine_s, data_s = fleet_setup ~k ~seed in
  let w0 = words () in
  let res, wall_s = timed_run (fun () -> Cluster.run cfg) in
  let alloc_words = words () -. w0 in
  let json, report_s = timed (fun () -> Cluster.result_to_json res) in
  let trs = List.concat_map (fun (r : Server.report) -> r.Server.tenant_reports) (shard_reports res) in
  let counter = Metrics.counter_value res.Cluster.registry in
  let consumed = counter "serve.replica.corruptions" in
  let failures =
    (match Cluster.check_result res with
    | () -> []
    | exception Invariant.Violation msg -> [ "Cluster.check_result: " ^ msg ])
    @ List.concat_map
        (fun (sr : Cluster.shard_result) ->
          tenant_failures ~where:(Printf.sprintf "shard %d" sr.Cluster.shard) sr.Cluster.report.Server.tenant_reports)
        res.Cluster.shard_results
    @ checks
        [
          (Histogram.count res.Cluster.fleet_latency = completed trs, "fleet latency samples <> completed");
          (vote_masks_corruption (), "a vote with one corrupted replica lost the ground-truth token");
          (consumed = corruptions_armed, "the armed corruption never reached a replica vote");
          (counter "serve.replica.divergent" = consumed, "replica divergence without a consumed corruption");
          (counter "serve.replica.masked" = consumed, "a divergent replica vote was not masked");
        ]
  in
  let stats = List.map (fun (r : Server.report) -> engine_counts r.Server.stats) (shard_reports res) in
  {
    setup_machine_s = machine_s;
    setup_data_s = data_s;
    wall_s;
    report_s;
    alloc_words;
    events = sum (fun (sr : Cluster.shard_result) -> sr.Cluster.sim_events) res.Cluster.shard_results;
    makespan_ns = res.Cluster.makespan_ns;
    sojourn_ns = [];
    latency_sum_ns = Histogram.sum res.Cluster.fleet_latency;
    within_slo = within_slo trs - List.length failures;
    counts =
      List.fold_left add_counts (List.hd stats) (List.tl stats)
      @ other_counts
          [
            (* the shards' policies and machines stay inside Cluster.run;
               the traced run supplies the DAG counts *)
            ("count.policy_ticks", -1);
            ("count.jobs", completed trs);
            ("count.epochs", res.Cluster.epochs);
            ("count.routes", sum (fun (sr : Cluster.shard_result) -> sr.Cluster.placed) res.Cluster.shard_results);
            ("count.relocations", res.Cluster.relocations);
            ("count.dag_nodes", -1);
            ("count.transfer_bytes", -1);
            ("aux.transfers", -1);
            ("aux.replica_groups", counter "serve.replica.groups");
            ("aux.policy_applied", -1);
            ("aux.policy_skipped", -1);
            ("aux.submitted", counter "serve.submitted");
            ("aux.admitted", counter "serve.admitted");
            ("aux.masked", counter "serve.replica.masked");
            ("aux.armed", corruptions_armed);
            ( "aux.served_quanta",
              sum (fun (r : Server.report) -> r.Server.stats.Engine.Stats.context_switches) (shard_reports res) );
          ];
    queue_wait = queue_waits trs;
    fingerprint = json ^ res.Cluster.placement_log;
    attempted = res.Cluster.router_submitted;
    failed = shed trs + res.Cluster.router_shed + List.length failures;
    failures;
  }

(* exact per-job sojourns from a traced fleet run (the fleet's own
   latency histogram is log-bucketed): router route instant -> shard
   finish instant, per cluster job id *)
let fleet_sojourns traces =
  let arrival = Hashtbl.create 1024 and finish = ref [] in
  List.iter
    (fun tr ->
      List.iter
        (function
          | Engine.Trace.Fleet { phase = Engine.Trace.Route; job_id; at_ns; _ } ->
              Hashtbl.replace arrival job_id at_ns
          | Engine.Trace.Job { phase = Engine.Trace.Finish; job_id; at_ns; _ } ->
              finish := (job_id, at_ns) :: !finish
          | _ -> ())
        (Engine.Trace.events tr))
    traces;
  List.map
    (fun (id, fin) ->
      match Hashtbl.find_opt arrival id with
      | Some a -> fin -. a
      | None -> failwith (Printf.sprintf "fleet-hetero: job %d finished but was never routed" id))
    !finish

(* What the fleet's DAG jobs moved across chiplets, rebuilt from a traced
   run's [Dag_node] events: a job's graph is regenerated from its seed
   (the event's job id) and identified by its nodes' op classes, and each
   edge whose endpoints ran on different chiplets is charged in whole
   lines, as [Machine.transfer] charges it.  Returns (cut edges, bytes). *)
let dag_transfers ~line_bytes traces =
  let jobs = Hashtbl.create 256 in
  List.iter
    (fun tr ->
      List.iter
        (function
          | Engine.Trace.Dag_node { tenant; job_id; node; op; chiplet; _ } ->
              let key = (Engine.Trace.pid tr, tenant, job_id) in
              Hashtbl.replace jobs key ((node, (op, chiplet)) :: Option.value ~default:[] (Hashtbl.find_opt jobs key))
          | _ -> ())
        (Engine.Trace.events tr))
    traces;
  Hashtbl.fold
    (fun (pid, _, seed) placed (edges, bytes) ->
      let line_bytes = line_bytes pid in
      let matches (g : Taskgraph.Graph.t) =
        Taskgraph.Graph.num_nodes g = List.length placed
        && List.for_all
             (fun (i, (op, _)) -> i < Array.length g.nodes && Taskgraph.Graph.op_name g.nodes.(i).op = op)
             placed
      in
      let g =
        match
          List.filter matches
            (List.map
               (fun shape -> Taskgraph.Graph.generate ~shape ~layers:fleet_dag_layers ~seed ())
               Taskgraph.Graph.all_shapes)
        with
        | g :: _ -> g
        | [] -> failwith (Printf.sprintf "fleet-hetero: DAG job %d matches no generated graph" seed)
      in
      let chiplet i = snd (List.assoc i placed) in
      Array.fold_left
        (fun (edges, bytes) (e : Taskgraph.Graph.edge) ->
          if chiplet e.src = chiplet e.dst || e.bytes = 0 then (edges, bytes)
          else (edges + 1, bytes + ((e.bytes + line_bytes - 1) / line_bytes * line_bytes)))
        (edges, bytes) g.edges)
    jobs (0, 0)

let fleet_traced_trial ~k ~seed ~check =
  let cfg = fleet_config ~k ~seed ~machines:(fleet_machines ()) ~check ~trace:true in
  let res, w = timed_run (fun () -> Cluster.run cfg) in
  (w, res.Cluster.traces)

let fleet_hetero =
  {
    name = "fleet-hetero";
    rep = trials fleet_trials fleet_trial;
    check_run =
      (fun ~seed ->
        List.concat_map
          (fun k ->
            let _, traces = fleet_traced_trial ~k ~seed ~check:true in
            let dropped = sum Engine.Trace.dropped traces in
            if dropped > 0 then failwith (Printf.sprintf "fleet-hetero: the trace dropped %d events" dropped);
            fleet_sojourns traces)
          (List.init fleet_trials Fun.id));
    traced_run =
      (fun ~seed ~capacity:_ ->
        let machines = Array.of_list (fleet_machines ()) in
        (* shard s traces under pid s + 1 *)
        let line_bytes pid =
          (Sys_.topology machines.((pid - 1) mod Array.length machines) ~cache_scale).Topology.line_bytes
        in
        let dag = [ ("count.dag_nodes", 0); ("count.transfer_bytes", 0); ("aux.transfers", 0) ] in
        List.fold_left
          (fun acc k ->
            let w, traces = fleet_traced_trial ~k ~seed ~check:false in
            let cats = count_categories traces and dropped = sum Engine.Trace.dropped traces in
            let edges, bytes = if dropped = 0 then dag_transfers ~line_bytes traces else (-1, -1) in
            {
              t_wall_s = acc.t_wall_s +. w;
              by_category = add_categories acc.by_category cats;
              dropped = acc.dropped + dropped;
              t_counts =
                add_counts acc.t_counts
                  [ ("count.dag_nodes", List.assoc "dag" cats); ("count.transfer_bytes", bytes); ("aux.transfers", edges) ];
            })
          { t_wall_s = 0.0; by_category = count_categories []; dropped = 0; t_counts = dag }
          (List.init fleet_trials Fun.id));
  }

let all = [ batch_graph; serve_milan; fleet_hetero ]
