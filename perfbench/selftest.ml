(* Self-tests of the benchmark's own code: the metric catalogue, the
   end-to-end assembly and the ledger arithmetic.  Run at the start of
   every invocation. *)

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b)

let catalogue () =
  let all = Metric.end_to_end @ Metric.per_layer in
  List.iter
    (fun (n, u) ->
      if not (Metric.valid_name n) then failwith ("bad metric name " ^ n);
      if not (Metric.valid_unit u) then failwith ("bad unit for " ^ n))
    all;
  let names = List.map fst all in
  if List.length (List.sort_uniq compare names) <> List.length names then
    failwith "duplicate metric name"

(* a synthetic workload's repetitions must yield exactly the catalogue *)
let assembly ~end_to_end =
  let rep wall setup =
    {
      Workload.setup_machine_s = setup;
      setup_data_s = 0.02;
      wall_s = wall;
      report_s = 0.001;
      alloc_words = 1e6;
      events = 500_000;
      makespan_ns = 2e6;
      sojourn_ns = [];
      latency_sum_ns = 0.0;
      within_slo = 150;
      counts = [];
      queue_wait = Serving.Histogram.create ();
      fingerprint = "";
      attempted = 1;
      failed = 0;
      failures = [];
    }
  in
  (* 200 latency samples 1..200 us: nearest-rank p50 = 100, p99 = 198 *)
  let sojourns = List.init 200 (fun i -> float_of_int (200 - i) *. 1e3) in
  let ms = end_to_end [ rep 0.3 0.03; rep 0.1 0.01; rep 0.2 0.04 ] ~sojourns ~peak_heap_mb:12.0 in
  if not (Metric.conforms ~catalogue:Metric.end_to_end ms) then
    failwith "end-to-end metrics do not match the catalogue";
  let get n = (List.find (fun m -> m.Metric.name = n) ms).Metric.value in
  List.iter
    (fun (n, want) ->
      if not (close (get n) want) then failwith (Printf.sprintf "%s = %.17g, expected %g" n (get n) want))
    [
      ("wall_s", 0.2);
      ("sim_events_per_s", 2.5e6);
      ("alloc_words_per_event", 2.0);
      ("setup_s", 0.05);
      ("sim_makespan_ms", 2.0);
      ("sim_p50_us", 100.0);
      ("sim_p99_us", 198.0);
      ("sim_goodput_jobs_per_s", 75_000.0);
    ]

(* golden ledger: every unit cost 2 ns over a fixed count vector *)
let ledger () =
  let costs = List.map (fun (n, _) -> (n, 2.0)) Metric.unit_costs in
  let counts =
    List.map (fun c -> ("count.access." ^ c, 1_000_000)) Metric.fill_classes
    @ [
        ("count.dag_nodes", 1000);
        ("aux.transfers", 1000);
        ("count.quanta", 100_000);
        ("count.tasks", 50_000);
        ("aux.requeued_quanta", 50_000);
        ("aux.served_quanta", 100_000);
        ("count.policy_ticks", 1000);
        ("aux.power_cap_ticks", 100_000);
        ("count.migrations", 10);
        ("count.jobs", 1000);
        ("aux.replica_groups", 100);
        ("count.routes", 2000);
      ]
  in
  let l = Ledger.attribute ~counts ~costs ~wall_s:0.02 in
  let expect =
    [
      ("chipsim", 0.010002);
      ("engine", 0.0002);
      ("core", 0.00020202);
      ("serve", 0.0002222);
      ("fleet", 0.000004);
      ("taskgraph", 0.000002);
    ]
  in
  List.iter
    (fun (m, s) ->
      if not (close (List.assoc m l.Ledger.per_module) s) then
        failwith (Printf.sprintf "ledger: %s attributed %.17g, expected %.17g" m
                    (List.assoc m l.Ledger.per_module) s))
    expect;
  if not (close l.Ledger.total_s 0.01063222) then failwith "ledger: total";
  if not (close l.Ledger.share 0.531611) then failwith "ledger: share";
  if not (close l.Ledger.residual_s 0.00936778) then failwith "ledger: residual";
  (* an unobservable count (-1) contributes nothing *)
  let counts' =
    List.map (fun (k, v) -> if k = "count.policy_ticks" then (k, -1) else (k, v)) counts
  in
  let l' = Ledger.attribute ~counts:counts' ~costs ~wall_s:0.02 in
  if not (close (List.assoc "core" l'.Ledger.per_module) 0.00020002) then
    failwith "ledger: negative count was attributed";
  if not (Metric.conforms ~catalogue:Metric.attribution (Ledger.metrics l)) then
    failwith "ledger metrics do not match the catalogue"

let run ~end_to_end =
  catalogue ();
  assembly ~end_to_end;
  ledger ()
