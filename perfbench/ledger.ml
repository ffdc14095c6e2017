(* The per-layer cost ledger: op counts x calibrated unit costs, summed per
   module and set against the measured wall-clock.  Whatever the sum does
   not explain is reported as the residual, never spread over the rows.

   Counts are keyed by their catalogue names; [aux.*] counts feed the
   ledger without being printed.  A negative count means "not observable
   from outside on this workload" and contributes nothing. *)

(* module, count, unit cost, unit-cost ops per counted event *)
let terms =
  List.map
    (fun c ->
      ("chipsim", "count.access." ^ c, "chipsim.machine.access." ^ c ^ ".ns", 1.0))
    Metric.fill_classes
  @ [
      ("chipsim", "aux.transfers", "chipsim.machine.transfer.ns", 1.0);
      (* spawn_run was timed as a spawn plus its task's one quantum, so
         only the quanta after a task's first are charged as quanta *)
      ("engine", "count.tasks", "engine.sched.spawn_run.ns", 1.0);
      ("engine", "aux.requeued_quanta", "engine.sched.quantum.ns", 1.0);
      ("core", "count.policy_ticks", "core.policy.tick.ns", 1.0);
      ("core", "aux.power_cap_ticks", "core.power_cap.tick.ns", 1.0);
      ("core", "count.migrations", "core.placement.core_of_worker.ns", 1.0);
      (* per completed job: latency, queue-wait and registry histograms,
         and the submitted/admitted/completed/work/kind/SLO counters *)
      ("serve", "count.jobs", "serve.histogram.observe.ns", 3.0);
      ("serve", "count.jobs", "serve.metrics.incr.ns", 6.0);
      (* the server's per-quantum registry counter *)
      ("serve", "aux.served_quanta", "serve.metrics.incr.ns", 1.0);
      ("serve", "count.jobs", "serve.fair_queue.push_pop.ns", 1.0);
      ("serve", "count.jobs", "serve.admission.decide.ns", 1.0);
      ("serve", "aux.replica_groups", "serve.replica.vote.ns", 1.0);
      ("fleet", "count.routes", "fleet.router.choose.ns", 1.0);
      ("taskgraph", "count.dag_nodes", "taskgraph.mapper.map.ns_per_node", 1.0);
    ]

type t = {
  per_module : (string * float) list;  (** seconds, in {!Metric.ledger_modules} order *)
  total_s : float;
  share : float;  (** total / wall *)
  residual_s : float;  (** wall - total *)
}

let attribute ~counts ~costs ~wall_s =
  let find what l k =
    match List.assoc_opt k l with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Ledger.attribute: no %s %s" what k)
  in
  let per_module =
    List.map
      (fun m ->
        let s =
          List.fold_left
            (fun acc (m', count, cost, per) ->
              if m' <> m then acc
              else
                let n = find "count" counts count in
                if n <= 0 then acc
                else acc +. (float_of_int n *. per *. find "cost" costs cost *. 1e-9))
            0.0 terms
        in
        (m, s))
      Metric.ledger_modules
  in
  let total_s = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 per_module in
  { per_module; total_s; share = total_s /. wall_s; residual_s = wall_s -. total_s }

let metrics t =
  List.map (fun (m, s) -> Metric.v ("attributed." ^ m ^ ".s") "s" s) t.per_module
  @ [ Metric.v "attributed.share" "ratio" t.share; Metric.v "residual_s" "s" t.residual_s ]
