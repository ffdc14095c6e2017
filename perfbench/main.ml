(* perfbench: host cost and simulated outcome of the CHARM simulator on
   one named workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Repeats the workload until [S] seconds of repetitions have run (at
   least [min_reps]), checks every repetition's outputs, requires all
   repetitions to agree exactly on everything simulated, runs once more
   with the executable invariants on, and prints every metric by name
   with its unit.  The last stdout line is one JSON object: the
   end-to-end metrics with [--trace 0]; the per-layer ledger with
   [--trace 1], which adds the calibration pass and one traced run.
   README.md describes the workloads and metrics. *)

let min_reps = 3

(* the simulated outcome: exact per seed, identical across repetitions *)
let sim_metrics (r : Workload.rep) ~sojourns =
  let a = Stats.sorted sojourns in
  [
    Metric.v "sim_makespan_ms" "ms" (r.Workload.makespan_ns /. 1e6);
    Metric.v "sim_p50_us" "us" (Stats.percentile a 0.50 /. 1e3);
    Metric.v "sim_p99_us" "us" (Stats.percentile a 0.99 /. 1e3);
    Metric.v "sim_goodput_jobs_per_s" "jobs/s"
      (float_of_int r.Workload.within_slo /. (r.Workload.makespan_ns /. 1e9));
  ]

let end_to_end (reps : Workload.rep list) ~sojourns ~peak_heap_mb =
  let r0 = List.hd reps in
  let median f = Stats.median (List.map f reps) in
  let wall = median (fun r -> r.Workload.wall_s) in
  let events = float_of_int r0.Workload.events in
  [
    Metric.v "setup_s" "s" (median (fun r -> r.Workload.setup_machine_s +. r.Workload.setup_data_s));
    Metric.v "wall_s" "s" wall;
    Metric.v "sim_events_per_s" "events/s" (events /. wall);
    Metric.v "alloc_words_per_event" "words" (median (fun r -> r.Workload.alloc_words) /. events);
    Metric.v "peak_heap_mb" "MB" peak_heap_mb;
  ]
  @ sim_metrics r0 ~sojourns

(* everything simulated must be identical across repetitions *)
let determinism_failures (reps : Workload.rep list) =
  let r0 = List.hd reps in
  List.concat
    (List.mapi
       (fun i (r : Workload.rep) ->
         List.filter_map
           (fun (same, what) ->
             if same then None
             else Some (Printf.sprintf "repetition %d: %s differs from repetition 0" i what))
           [
             (r.Workload.makespan_ns = r0.Workload.makespan_ns, "the makespan");
             (r.Workload.sojourn_ns = r0.Workload.sojourn_ns, "a latency sample");
             (r.Workload.latency_sum_ns = r0.Workload.latency_sum_ns, "the latency sum");
             (r.Workload.within_slo = r0.Workload.within_slo, "the SLO count");
             (r.Workload.counts = r0.Workload.counts, "an op count");
             (r.Workload.events = r0.Workload.events, "the event count");
             (r.Workload.fingerprint = r0.Workload.fingerprint, "the report");
           ])
       reps)

(* latencies recovered from a traced run must be the ones the untraced
   repetitions' own histograms summed *)
let sojourn_failures (r : Workload.rep) sojourns =
  let n = List.length sojourns and jobs = List.assoc "count.jobs" r.Workload.counts in
  let total = List.fold_left ( +. ) 0.0 sojourns in
  if n <> jobs then [ Printf.sprintf "traced run saw %d completions, the repetitions %d" n jobs ]
  else if Float.abs (total -. r.Workload.latency_sum_ns) > 1e-6 *. r.Workload.latency_sum_ns then
    [ "traced run's latencies differ from the repetitions' histograms" ]
  else []

let ratios (r : Workload.rep) =
  let get k = List.assoc k r.Workload.counts in
  let ratio a b = if a < 0 || b < 0 then -1.0 else if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let local = get "count.access.l2_hit" + get "count.access.l3_local" in
  let all = List.fold_left (fun acc c -> acc + get ("count.access." ^ c)) 0 Metric.fill_classes in
  let applied = get "aux.policy_applied" and skipped = get "aux.policy_skipped" in
  [
    Metric.v "chipsim.local_fill_ratio" "ratio" (ratio local all);
    Metric.v "core.policy.migration_apply_ratio" "ratio"
      (if skipped < 0 then -1.0 else ratio applied (applied + skipped));
    Metric.v "serve.admit_ratio" "ratio" (ratio (get "aux.admitted") (get "aux.submitted"));
    Metric.v "serve.queue_wait_p99_us" "us" (Serving.Histogram.p99 r.Workload.queue_wait /. 1e3);
    Metric.v "serve.replica.masked" "count" (float_of_int (get "aux.masked"));
    Metric.v "serve.replica.corruptions_armed" "count" (float_of_int (get "aux.armed"));
  ]

let per_layer ~(reps : Workload.rep list) ~(calib : Calib.t) ~(traced : Workload.traced) =
  let median f = Stats.median (List.map f reps) in
  let r0 = List.hd reps in
  let wall = median (fun r -> r.Workload.wall_s) in
  let counts =
    List.map
      (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k traced.Workload.t_counts)))
      r0.Workload.counts
  in
  let ledger = Ledger.attribute ~counts ~costs:calib.Calib.costs ~wall_s:wall in
  List.map (fun (n, u) -> Metric.v n u (List.assoc n calib.Calib.costs)) Metric.unit_costs
  @ List.map (fun (n, u) -> Metric.v n u (float_of_int (List.assoc n counts))) Metric.counts
  @ Ledger.metrics ledger
  @ [
      Metric.v "phase.setup.machine.s" "s" (median (fun r -> r.Workload.setup_machine_s));
      Metric.v "phase.setup.data.s" "s" (median (fun r -> r.Workload.setup_data_s));
      Metric.v "phase.run.s" "s" wall;
      Metric.v "phase.report.s" "s" (median (fun r -> r.Workload.report_s));
    ]
  @ ratios r0
  @ List.map
      (fun (c, n) -> Metric.v ("trace.events." ^ c) "count" (float_of_int n))
      traced.Workload.by_category
  @ [
      Metric.v "trace.dropped" "count" (float_of_int traced.Workload.dropped);
      Metric.v "trace.overhead_ratio" "ratio" (traced.Workload.t_wall_s /. wall);
    ]

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun m -> Printf.printf "  %-44s %18.6g %s\n" m.Metric.name m.Metric.value m.Metric.unit_) ms

(* a trial's trace ring: twice the quanta and steals of a whole repetition
   plus its job events, so no trial's trace drops events *)
let trace_capacity (r : Workload.rep) =
  let get k = max 0 (List.assoc k r.Workload.counts) in
  (2 * (get "count.quanta" + get "count.steals")) + (8 * get "count.jobs") + 65536

let run ~(wl : Workload.t) ~seed ~seconds ~trace =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec loop acc n =
    if n >= min_reps && Unix.gettimeofday () >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      let r = wl.Workload.rep ~seed in
      Printf.eprintf "repetition %d: set-up %.4f s, run %.4f s\n%!" n
        (r.Workload.setup_machine_s +. r.Workload.setup_data_s)
        r.Workload.wall_s;
      loop (r :: acc) (n + 1)
    end
  in
  let reps = loop [] 0 in
  let r0 = List.hd reps in
  let peak_heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 in
  let traced_sojourns, invariant_failures =
    match wl.Workload.check_run ~seed with
    | s -> (s, [])
    | exception Chipsim.Invariant.Violation msg -> ([], [ "invariant violation: " ^ msg ])
  in
  let sojourns, sojourn_check =
    if r0.Workload.sojourn_ns <> [] then (r0.Workload.sojourn_ns, [])
    else (traced_sojourns, sojourn_failures r0 traced_sojourns)
  in
  let failures =
    List.concat_map (fun (r : Workload.rep) -> r.Workload.failures) reps
    @ determinism_failures reps @ invariant_failures @ sojourn_check
  in
  let attempted = List.fold_left (fun a (r : Workload.rep) -> a + r.Workload.attempted) 0 reps in
  let failed =
    List.fold_left (fun a (r : Workload.rep) -> a + r.Workload.failed) 0 reps
    + List.length invariant_failures
  in
  if sojourns = [] then begin
    List.iter (fun f -> Printf.eprintf "perfbench: FAILED CHECK: %s\n" f) failures;
    prerr_endline "perfbench: no latency samples";
    exit 1
  end;
  let e2e = end_to_end reps ~sojourns ~peak_heap_mb in
  Printf.printf "perfbench %s seed=%d: %d repetitions, %d latency samples, %d ops attempted, %d failed\n"
    wl.Workload.name seed (List.length reps) (List.length sojourns) attempted failed;
  print_metrics "end-to-end:" e2e;
  let metrics =
    if not trace then e2e
    else begin
      let dag_topo =
        Harness.Systems.topology (List.nth (Workload.fleet_machines ()) 1) ~cache_scale:Workload.cache_scale
      in
      let calib = Calib.run ~dag_topo in
      let traced = wl.Workload.traced_run ~seed ~capacity:(trace_capacity r0) in
      let ms = per_layer ~reps ~calib ~traced in
      print_metrics "per-layer:" ms;
      Printf.printf "fill-class calibration (share of timed accesses in the class):\n";
      List.iter (fun (c, f) -> Printf.printf "  %-16s %6.2f%%\n" c (100.0 *. f.Calib.in_class)) calib.Calib.fills;
      Printf.printf "cross-check against ROADMAP item 2's plain-loop figures:\n";
      List.iter
        (fun (n, ref_ns) ->
          let v = List.assoc n calib.Calib.costs in
          Printf.printf "  %-44s %8.1f ns vs %5.1f ns (x%.2f)\n" n v ref_ns (v /. ref_ns))
        Calib.roadmap_reference;
      ms
    end
  in
  let catalogue = if trace then Metric.per_layer else Metric.end_to_end in
  if not (Metric.conforms ~catalogue metrics) then begin
    prerr_endline "perfbench: emitted metrics do not match the catalogue";
    exit 1
  end;
  List.iter (fun f -> Printf.eprintf "perfbench: FAILED CHECK: %s\n" f) failures;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failures = []) attempted failed (Metric.to_json metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let list = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME batch-graph | serve-milan | fleet-hetero");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds of timed repetitions");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--list", Arg.Set list, " print the metric catalogue (name unit) and exit");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  Selftest.run ~end_to_end;
  if !list then List.iter (fun (n, u) -> Printf.printf "%s %s\n" n u) (Metric.end_to_end @ Metric.per_layer)
  else begin
    let fail msg = prerr_endline ("perfbench: " ^ msg); exit 2 in
    if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
    if not (!seconds > 0.0) then fail "--seconds must be positive";
    match List.find_opt (fun w -> w.Workload.name = !workload) Workload.all with
    | None ->
        fail
          (Printf.sprintf "unknown workload %S (have %s)" !workload
             (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all)))
    | Some wl -> run ~wl ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  end
