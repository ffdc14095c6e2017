(* Serving layer: arrivals, histogram quantiles, admission bounds,
   weighted fair queueing, and end-to-end server determinism. *)

module Arrivals = Serving.Arrivals
module Histogram = Serving.Histogram
module Admission = Serving.Admission
module Fair_queue = Serving.Fair_queue
module Metrics = Serving.Metrics
module Server = Serving.Server
module Sys_ = Harness.Systems

(* -- arrivals ---------------------------------------------------------- *)

let test_poisson_deterministic () =
  let times seed =
    Arrivals.poisson_times ~rng:(Chipsim.Rng.create seed) ~rate_per_s:1000.0
      ~jobs:50
  in
  Alcotest.(check bool) "same seed, same trace" true (times 7 = times 7);
  Alcotest.(check bool) "different seed, different trace" true (times 7 <> times 8)

let test_poisson_shape () =
  let times =
    Arrivals.poisson_times ~rng:(Chipsim.Rng.create 3) ~rate_per_s:1000.0
      ~jobs:2000
  in
  Alcotest.(check int) "count" 2000 (Array.length times);
  Array.iteri
    (fun i t ->
      if i > 0 then
        Alcotest.(check bool) "strictly increasing" true (t > times.(i - 1)))
    times;
  (* mean gap of a 1000/s process is 1e6 ns; the 2000-sample average must
     land well within 10% *)
  let mean_gap = times.(Array.length times - 1) /. 2000.0 in
  Alcotest.(check bool) "mean gap near 1/rate" true
    (mean_gap > 0.9e6 && mean_gap < 1.1e6)

(* -- histogram --------------------------------------------------------- *)

let test_histogram_quantiles () =
  let h = Histogram.create () in
  for v = 1 to 100 do
    Histogram.observe h (float_of_int v)
  done;
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check (float 0.001)) "sum" 5050.0 (Histogram.sum h);
  Alcotest.(check (float 0.001)) "max" 100.0 (Histogram.max_value h);
  (* bucket growth is 12%, so quantiles carry <= 12% relative error *)
  let near q quantile expect =
    let v = quantile h in
    Alcotest.(check bool)
      (Printf.sprintf "q%.2f=%g near %g" q v expect)
      true
      (v >= expect && v <= expect *. 1.13)
  in
  near 0.5 Histogram.p50 50.0;
  near 0.95 Histogram.p95 95.0;
  near 0.99 Histogram.p99 99.0;
  (* of 100 samples the 99.9th percentile is the largest *)
  Alcotest.(check bool) "q1 clamped to max" true (Histogram.p999 h <= 100.0)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for v = 1 to 50 do
    Histogram.observe a (float_of_int v)
  done;
  for v = 51 to 100 do
    Histogram.observe b (float_of_int v)
  done;
  Histogram.merge a b;
  Alcotest.(check int) "merged count" 100 (Histogram.count a);
  Alcotest.(check (float 0.001)) "merged max" 100.0 (Histogram.max_value a)

let test_histogram_p999 () =
  let h = Histogram.create () in
  for v = 1 to 10_000 do
    Histogram.observe h (float_of_int v)
  done;
  Alcotest.(check bool) "p999 above p99" true
    (Histogram.p999 h >= Histogram.p99 h);
  (* bucket growth 12% bounds the relative error *)
  Alcotest.(check bool) "p999 near 9990" true
    (Histogram.p999 h > 0.85 *. 9990.0 && Histogram.p999 h < 1.15 *. 9990.0)

let test_histogram_absurd_samples () =
  let h = Histogram.create () in
  Histogram.observe h 10.0;
  (* a single absurd sample must neither allocate an unbounded counts
     array nor wedge the quantile scan *)
  Histogram.observe h infinity;
  Histogram.observe h Float.nan;
  Histogram.observe h (-5.0);
  Alcotest.(check int) "all samples counted" 4 (Histogram.count h);
  Alcotest.(check bool) "median still finite" true
    (Float.is_finite (Histogram.p50 h));
  Alcotest.(check bool) "p999 lands in overflow bucket" true
    (Float.is_finite (Histogram.p999 h))

(* -- admission --------------------------------------------------------- *)

let test_admission_scaling () =
  let cfg = { Admission.max_queue_per_tenant = 10; max_global_queue = 40 } in
  let scaled = Admission.scale cfg ~capacity:0.5 in
  Alcotest.(check int) "tenant bound halved" 5 scaled.Admission.max_queue_per_tenant;
  Alcotest.(check int) "global bound halved" 20 scaled.Admission.max_global_queue;
  let floor = Admission.scale cfg ~capacity:0.0 in
  Alcotest.(check int) "never below one slot" 1 floor.Admission.max_queue_per_tenant;
  let full = Admission.scale cfg ~capacity:1.0 in
  Alcotest.(check bool) "full capacity unchanged" true (full = cfg)

let test_admission_bounds () =
  let cfg = { Admission.max_queue_per_tenant = 4; max_global_queue = 6 } in
  Alcotest.(check bool) "under both bounds" true
    (Admission.decide cfg ~tenant_depth:3 ~global_depth:3 = Admission.Admit);
  Alcotest.(check bool) "tenant full" true
    (Admission.decide cfg ~tenant_depth:4 ~global_depth:4
    = Admission.Shed_tenant_full);
  Alcotest.(check bool) "server full" true
    (Admission.decide cfg ~tenant_depth:2 ~global_depth:6
    = Admission.Shed_server_full);
  (* the tenant bound shields the global one *)
  Alcotest.(check bool) "tenant checked first" true
    (Admission.decide cfg ~tenant_depth:4 ~global_depth:6
    = Admission.Shed_tenant_full)

let test_server_sheds_at_bound () =
  (* one tenant allowed 2 queued jobs, swamped by an instantaneous burst:
     everything past [max_inflight + bound] must be shed, and
     admitted - completed must balance *)
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm Sys_.Amd_milan ~n_workers:8 () in
  let base = Server.default_config ~seed:5 in
  let tenant =
    {
      Server.name = "burst";
      weight = 1.0;
      slo_factor = 3.0;
      process = Arrivals.Open_loop { rate_per_s = 1e9 };
      jobs = 30;
      mix = [ (Serving.Job.Gups 512, 1) ];
      replicas = 1;
    }
  in
  let cfg =
    {
      base with
      Server.tenants = [ tenant ];
      admission = { Admission.max_queue_per_tenant = 2; max_global_queue = 64 };
      max_inflight = 1;
    }
  in
  let r = Server.run inst cfg in
  let tr = List.hd r.Server.tenant_reports in
  Alcotest.(check int) "submitted" 30 tr.Server.submitted;
  Alcotest.(check bool) "shed something" true (tr.Server.shed > 0);
  Alcotest.(check int) "admitted + shed = submitted" 30
    (tr.Server.admitted + tr.Server.shed);
  Alcotest.(check int) "admitted all complete" tr.Server.admitted
    tr.Server.completed;
  Alcotest.(check int) "shed counter in registry" tr.Server.shed
    (Metrics.counter_value r.Server.registry "serve.shed")

(* configurations the CLI can no longer build still fail loudly when a
   caller assembles them by hand *)
let test_server_rejects_bad_tenants () =
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm Sys_.Amd_milan ~n_workers:4 () in
  let base = Server.default_config ~seed:5 in
  let t = List.hd base.Server.tenants in
  Alcotest.check_raises "repeated name"
    (Invalid_argument ("Server.run: duplicate tenant name " ^ t.Server.name))
    (fun () -> ignore (Server.run inst { base with Server.tenants = [ t; t ] } : Server.report));
  let idle = { t with Server.process = Arrivals.Closed_loop { clients = 0; think_ns = 0.0 } } in
  Alcotest.check_raises "no closed-loop client"
    (Invalid_argument "Server.run: closed-loop clients < 1")
    (fun () -> ignore (Server.run inst { base with Server.tenants = [ idle ] } : Server.report));
  let rejects what msg cfg =
    Alcotest.check_raises what (Invalid_argument msg) (fun () ->
        ignore (Server.run inst cfg : Server.report))
  in
  List.iter
    (fun slo_factor ->
      rejects "non-positive SLO factor" "Server.run: tenant slo_factor <= 0"
        { base with Server.tenants = [ { t with Server.slo_factor } ] })
    [ 0.0; -1.0; nan ];
  let thinker = Arrivals.Closed_loop { clients = 1; think_ns = -1.0 } in
  rejects "negative think time" "Server.run: closed-loop think time < 0"
    { base with Server.tenants = [ { t with Server.process = thinker } ] };
  List.iter
    (fun admission ->
      rejects "admission bound below 1" "Server.run: admission queue bound < 1" { base with admission })
    [
      { Admission.max_queue_per_tenant = 0; max_global_queue = 8 };
      { Admission.max_queue_per_tenant = 4; max_global_queue = -1 };
    ]

(* -- fair queue -------------------------------------------------------- *)

let test_fair_queue_weights () =
  (* equal per-job cost, weights 2:1 - over any long prefix the weight-2
     tenant must be served about twice as often *)
  let fq = Fair_queue.create () in
  Fair_queue.add_tenant fq ~tenant:0 ~weight:2.0;
  Fair_queue.add_tenant fq ~tenant:1 ~weight:1.0;
  for i = 0 to 29 do
    Fair_queue.push fq ~tenant:0 ~cost:100.0 i;
    Fair_queue.push fq ~tenant:1 ~cost:100.0 i
  done;
  let served = [| 0; 0 |] in
  for _ = 1 to 18 do
    match Fair_queue.pop fq with
    | Some (t, _) -> served.(t) <- served.(t) + 1
    | None -> Alcotest.fail "queue ran dry"
  done;
  Alcotest.(check int) "weight-2 tenant got 2/3 of service" 12 served.(0);
  Alcotest.(check int) "weight-1 tenant got 1/3 of service" 6 served.(1)

let test_fair_queue_fifo_within_tenant () =
  let fq = Fair_queue.create () in
  Fair_queue.add_tenant fq ~tenant:0 ~weight:1.0;
  List.iter (fun i -> Fair_queue.push fq ~tenant:0 ~cost:50.0 i) [ 1; 2; 3 ];
  let order = List.init 3 (fun _ -> Option.get (Fair_queue.pop fq) |> snd) in
  Alcotest.(check (list int)) "FIFO per tenant" [ 1; 2; 3 ] order;
  Alcotest.(check (option (pair int int))) "empty" None (Fair_queue.pop fq)

(* -- metrics ----------------------------------------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr m "a.count";
  Metrics.incr m ~by:4 "a.count";
  Metrics.set_gauge m "b.gauge" 2.5;
  Metrics.observe m "c.hist" 10.0;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value m "a.count");
  Alcotest.(check (float 0.0)) "gauge" 2.5 (Metrics.gauge_value m "b.gauge");
  Alcotest.(check int) "histogram" 1 (Histogram.count (Metrics.histogram m "c.hist"));
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let json = Metrics.to_json m in
  Alcotest.(check bool) "counters in json" true (contains json "\"a.count\":5");
  Alcotest.(check bool) "gauges in json" true (contains json "\"b.gauge\":2.5")

let test_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr a ~by:3 "jobs";
  Metrics.incr b ~by:4 "jobs";
  Metrics.incr b "only.b";
  Metrics.set_gauge a "depth" 1.0;
  Metrics.set_gauge b "depth" 7.0;
  Metrics.observe a "lat" 100.0;
  Metrics.observe b "lat" 1000.0;
  Metrics.observe b "lat" 2000.0;
  Metrics.merge a b;
  Alcotest.(check int) "counters add" 7 (Metrics.counter_value a "jobs");
  Alcotest.(check int) "src-only counters appear" 1
    (Metrics.counter_value a "only.b");
  Alcotest.(check (float 0.0)) "gauges take src (last write wins)" 7.0
    (Metrics.gauge_value a "depth");
  Alcotest.(check int) "histograms merge samples" 3
    (Histogram.count (Metrics.histogram a "lat"));
  Alcotest.(check int) "src untouched" 4 (Metrics.counter_value b "jobs");
  Alcotest.(check int) "src histogram untouched" 2
    (Histogram.count (Metrics.histogram b "lat"))

let test_fair_queue_peek () =
  let fq = Fair_queue.create () in
  Fair_queue.add_tenant fq ~tenant:0 ~weight:1.0;
  Fair_queue.add_tenant fq ~tenant:1 ~weight:2.0;
  Alcotest.(check bool) "peek on empty" true (Fair_queue.peek fq = None);
  List.iter
    (fun i -> Fair_queue.push fq ~tenant:(i mod 2) ~cost:50.0 i)
    [ 0; 1; 2; 3; 4; 5 ];
  for _ = 1 to 6 do
    let p1 = Fair_queue.peek fq in
    let p2 = Fair_queue.peek fq in
    Alcotest.(check bool) "peek is stable" true (p1 = p2);
    Alcotest.(check bool) "peek matches pop" true (p1 = Fair_queue.pop fq)
  done;
  Alcotest.(check bool) "drained" true (Fair_queue.peek fq = None)

(* The service order against the selection it replaced: the smallest
   (finish, seq) by the polymorphic tuple [<=], scanning tenants in id
   order.  Costs from a small set and 1:2:4 weights make equal finish
   tags common, so ties between tenants are broken by seq; tenants are
   added out of id order, and peeks, pops and pushes interleave. *)
let test_fair_queue_matches_tuple_order () =
  let tenants = [ (5, 1.0); (1, 2.0); (3, 4.0); (0, 1.0) ] in
  let fq = Fair_queue.create () in
  List.iter (fun (tenant, weight) -> Fair_queue.add_tenant fq ~tenant ~weight) tenants;
  (* reference: per tenant, (start, finish, seq, payload) oldest first *)
  let ids = List.sort compare (List.map fst tenants) in
  let queues = Hashtbl.create 4 and last = Hashtbl.create 4 in
  List.iter (fun (id, _) -> Hashtbl.add queues id (Queue.create ()); Hashtbl.add last id 0.0) tenants;
  let vtime = ref 0.0 and seq = ref 0 in
  let ref_push tenant cost payload =
    let start = Float.max !vtime (Hashtbl.find last tenant) in
    let finish = start +. (cost /. List.assoc tenant tenants) in
    Hashtbl.replace last tenant finish;
    Queue.add (start, finish, !seq, payload) (Hashtbl.find queues tenant);
    incr seq
  in
  let ref_select () =
    List.fold_left
      (fun best id ->
        match Queue.peek_opt (Hashtbl.find queues id) with
        | None -> best
        | Some ((_, f, s, _) as e) -> (
            match best with
            | Some (_, (_, bf, bs, _)) when (bf, bs) <= (f, s) -> best
            | _ -> Some (id, e)))
      None ids
  in
  let ref_peek () = Option.map (fun (id, (_, _, _, p)) -> (id, p)) (ref_select ()) in
  let ref_pop () =
    Option.map
      (fun (id, (start, _, _, p)) ->
        ignore (Queue.pop (Hashtbl.find queues id));
        vtime := Float.max !vtime start;
        (id, p))
      (ref_select ())
  in
  let rng = Random.State.make [| 41 |] in
  let ties = ref 0 in
  for i = 1 to 5000 do
    match Random.State.int rng 5 with
    | 0 | 1 ->
        let tenant = fst (List.nth tenants (Random.State.int rng 4)) in
        let cost = [| 0.0; 50.0; 100.0; 200.0 |].(Random.State.int rng 4) in
        Fair_queue.push fq ~tenant ~cost i;
        ref_push tenant cost i
    | 2 ->
        Alcotest.(check (option (pair int int))) "peek" (ref_peek ()) (Fair_queue.peek fq)
    | _ ->
        (* count the pops whose finish tag another tenant's head shares *)
        (match ref_select () with
        | Some (id, (_, f, _, _)) ->
            if
              List.exists
                (fun other ->
                  other <> id
                  && match Queue.peek_opt (Hashtbl.find queues other) with
                     | Some (_, f', _, _) -> f' = f
                     | None -> false)
                ids
            then incr ties
        | None -> ());
        let expected = ref_pop () in
        Alcotest.(check (option (pair int int))) "pop" expected (Fair_queue.pop fq)
  done;
  Alcotest.(check bool) "cross-tenant finish ties were served" true (!ties > 100)

(* -- end-to-end determinism -------------------------------------------- *)

let run_default seed =
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm Sys_.Amd_milan ~n_workers:16 () in
  let base = Server.default_config ~seed in
  let cfg =
    {
      base with
      Server.tenants =
        List.map (fun t -> { t with Server.jobs = 10 }) base.Server.tenants;
    }
  in
  Server.report_to_json (Server.run inst cfg)

let test_server_deterministic () =
  let a = run_default 42 and b = run_default 42 and c = run_default 43 in
  Alcotest.(check string) "same seed, identical report" a b;
  Alcotest.(check bool) "different seed, different report" true (a <> c)

(* -- the registry is a projection of the ledgers ----------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let spec line =
  match Experiment.of_string line with
  | Ok t -> t
  | Error m -> Alcotest.failf "%s: %s" line m

(* the registry's ledger counters are written at finish from the tenant
   rows and the machine's own statistics; the gauges that only held the
   last event's value are gone *)
let check_projection ~what (r : Server.report) =
  let counter = Metrics.counter_value r.Server.registry in
  let sum f = List.fold_left (fun acc tr -> acc + f tr) 0 r.Server.tenant_reports in
  let check name want got = Alcotest.(check int) (what ^ ": " ^ name) want got in
  check "sched.quanta = context switches"
    r.Server.stats.Engine.Stats.context_switches (counter "sched.quanta");
  check "serve.submitted" (sum (fun tr -> tr.Server.submitted)) (counter "serve.submitted");
  check "serve.admitted" (sum (fun tr -> tr.Server.admitted)) (counter "serve.admitted");
  check "serve.shed" (sum (fun tr -> tr.Server.shed)) (counter "serve.shed");
  check "serve.completed" (sum (fun tr -> tr.Server.completed)) (counter "serve.completed");
  let json = Metrics.to_json r.Server.registry in
  List.iter
    (fun gauge ->
      Alcotest.(check bool) (what ^ ": no " ^ gauge) false (contains json gauge))
    [ "serve.inflight"; "serve.queue_depth" ]

let test_registry_projects_ledgers () =
  let _, r = Experiment.serve (spec "charm_serve") in
  Alcotest.(check bool) "jobs ran" true (List.exists (fun tr -> tr.Server.completed > 0) r.Server.tenant_reports);
  check_projection ~what:"charm_serve" r

let test_fleet_registry_projects_ledgers () =
  let res = Experiment.fleet (spec "charm_serve --fleet 2 -n 8 --rate 8000 --jobs 30") in
  List.iter
    (fun (sr : Fleet.Cluster.shard_result) ->
      let r = sr.Fleet.Cluster.report in
      let what = Printf.sprintf "shard %d" sr.Fleet.Cluster.shard in
      Alcotest.(check int) (what ^ ": placed = submitted")
        (List.fold_left (fun acc tr -> acc + tr.Server.submitted) 0 r.Server.tenant_reports)
        sr.Fleet.Cluster.placed;
      check_projection ~what r)
    res.Fleet.Cluster.shard_results

(* -- CLI spec parsing -------------------------------------------------- *)

(* Valid specs through the CLIs' parser; the malformed ones are in
   test_experiment's rejection list with the field each error names. *)
let parse line =
  match Experiment.of_string line with
  | Ok t -> t
  | Error msg -> Alcotest.failf "rejected %s: %s" line msg

let test_tenant_spec () =
  match (parse "charm_serve --tenant gold:2:bfs+tpch:3").Experiment.workload with
  | Experiment.Serve { tenants = [ { name; weight; mix; _ } ]; _ } ->
      Alcotest.(check string) "name" "gold" name;
      Alcotest.(check (float 0.0)) "weight" 2.0 weight;
      Alcotest.(check int) "mix size" 2 (List.length mix);
      Alcotest.(check bool) "tpch:3 resolved" true
        (List.mem (Serving.Job.Tpch 3) mix)
  | _ -> Alcotest.fail "not one serving tenant"

let test_shard_machines_spec () =
  match (parse "charm_serve --fleet 3 --shard-machines 'amd, intel,amd'").Experiment.workload with
  | Experiment.Fleet (_, { shard_machines; _ }) ->
      Alcotest.(check int) "three shards" 3 (List.length shard_machines)
  | _ -> Alcotest.fail "not a fleet"

let test_shard_fault_spec () =
  let t = parse "charm_serve --fleet 3 --faults-shard 2:1000:membw:0:0.5" in
  match t.Experiment.faults with
  | [ (shard, schedule) ] ->
      Alcotest.(check int) "shard" 2 shard;
      Alcotest.(check string) "fault" "1000:membw:0:0.5" (Faults.Schedule.to_spec schedule)
  | _ -> Alcotest.fail "not one shard schedule"

let suite =
  [
    Alcotest.test_case "poisson deterministic" `Quick test_poisson_deterministic;
    Alcotest.test_case "poisson shape" `Quick test_poisson_shape;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram p999" `Quick test_histogram_p999;
    Alcotest.test_case "histogram absurd samples" `Quick
      test_histogram_absurd_samples;
    Alcotest.test_case "admission scaling" `Quick test_admission_scaling;
    Alcotest.test_case "admission bounds" `Quick test_admission_bounds;
    Alcotest.test_case "server sheds at bound" `Quick test_server_sheds_at_bound;
    Alcotest.test_case "server rejects bad tenants" `Quick test_server_rejects_bad_tenants;
    Alcotest.test_case "fair queue weights" `Quick test_fair_queue_weights;
    Alcotest.test_case "fair queue fifo" `Quick test_fair_queue_fifo_within_tenant;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "fair queue peek" `Quick test_fair_queue_peek;
    Alcotest.test_case "fair queue order matches tuple compare" `Quick
      test_fair_queue_matches_tuple_order;
    Alcotest.test_case "server deterministic" `Quick test_server_deterministic;
    Alcotest.test_case "registry projects the ledgers" `Quick
      test_registry_projects_ledgers;
    Alcotest.test_case "fleet registry projects the ledgers" `Quick
      test_fleet_registry_projects_ledgers;
    Alcotest.test_case "tenant spec parsing" `Quick test_tenant_spec;
    Alcotest.test_case "shard machine list parsing" `Quick
      test_shard_machines_spec;
    Alcotest.test_case "shard fault parsing" `Quick test_shard_fault_spec;
  ]
