(* The benchmark's metric catalogue: every name it may print, with its
   unit.  BENCHMARK.json lists the same names; the self-test checks that
   each run emits exactly the catalogue and nothing else. *)

type t = { name : string; unit_ : string; value : float }

let v name unit_ value = { name; unit_; value }

(* host = what the simulator costs to run; sim = virtual time on the
   modelled machine *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("sim_events_per_s", "events/s");
    ("alloc_words_per_event", "words");
    ("peak_heap_mb", "MB");
    ("sim_makespan_ms", "ms");
    ("sim_p50_us", "us");
    ("sim_p99_us", "us");
    ("sim_goodput_jobs_per_s", "jobs/s");
  ]

let fill_classes = [ "l2_hit"; "l3_local"; "remote_chiplet"; "remote_numa"; "dram" ]

(* (a) unit costs from the calibration pass *)
let unit_costs =
  [
    ("chipsim.cache.access_hit.ns", "ns");
    ("chipsim.cache.access_miss.ns", "ns");
  ]
  @ List.map (fun c -> ("chipsim.machine.access." ^ c ^ ".ns", "ns")) fill_classes
  @ [
      ("chipsim.machine.access.words", "words");
      ("chipsim.machine.touch_range.ns_per_line", "ns");
      ("chipsim.machine.transfer.ns", "ns");
      ("chipsim.memchan.charge_lines.ns", "ns");
      ("chipsim.directory.nearest_holder.ns", "ns");
      ("engine.coroutine.switch.ns", "ns");
      ("engine.sched.spawn_run.ns", "ns");
      ("engine.sched.quantum.ns", "ns");
      ("engine.trace.emit.ns", "ns");
      ("core.policy.tick.ns", "ns");
      ("core.placement.core_of_worker.ns", "ns");
      ("core.power_cap.tick.ns", "ns");
      ("serve.histogram.observe.ns", "ns");
      ("serve.metrics.incr.ns", "ns");
      ("serve.fair_queue.push_pop.ns", "ns");
      ("serve.admission.decide.ns", "ns");
      ("serve.replica.vote.ns", "ns");
      ("fleet.router.choose.ns", "ns");
      ("taskgraph.mapper.map.ns_per_node", "ns");
    ]

(* (b) per-workload op counts, read from the layers' own counters *)
let counts =
  List.map (fun c -> ("count.access." ^ c, "count")) fill_classes
  @ List.map
      (fun n -> ("count." ^ n, "count"))
      [
        "invalidations"; "quanta"; "steals"; "migrations"; "tasks";
        "policy_ticks"; "jobs"; "epochs"; "routes"; "relocations"; "dag_nodes";
      ]
  @ [ ("count.transfer_bytes", "bytes") ]

let ledger_modules = [ "chipsim"; "engine"; "core"; "serve"; "fleet"; "taskgraph" ]

(* (c) attribution, (d) phases, (e) ratios, (f) traced run *)
let attribution =
  List.map (fun m -> ("attributed." ^ m ^ ".s", "s")) ledger_modules
  @ [ ("attributed.share", "ratio"); ("residual_s", "s") ]

let phases =
  [
    ("phase.setup.machine.s", "s");
    ("phase.setup.data.s", "s");
    ("phase.run.s", "s");
    ("phase.report.s", "s");
  ]

let ratios =
  [
    ("chipsim.local_fill_ratio", "ratio");
    ("core.policy.migration_apply_ratio", "ratio");
    ("serve.admit_ratio", "ratio");
    ("serve.queue_wait_p99_us", "us");
    ("serve.replica.masked", "count");
    ("serve.replica.corruptions_armed", "count");
  ]

let trace_categories = [ "quantum"; "steal"; "park"; "job"; "fleet"; "dag" ]

let traced =
  List.map (fun c -> ("trace.events." ^ c, "count")) trace_categories
  @ [ ("trace.dropped", "count"); ("trace.overhead_ratio", "ratio") ]

let per_layer = unit_costs @ counts @ attribution @ phases @ ratios @ traced

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

(* every digit the float has: runs are compared on raw measurements *)
let json_number f =
  if not (Float.is_finite f) then invalid_arg "Metric.json_number: not finite";
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_json ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
           (json_number m.value) m.unit_)
       ms)

(* the catalogue check: names and units exactly as listed, each once *)
let conforms ~catalogue ms =
  let emitted = List.map (fun m -> (m.name, m.unit_)) ms in
  List.length emitted = List.length catalogue
  && List.for_all (fun e -> List.mem e emitted) catalogue
  && List.for_all (fun m -> Float.is_finite m.value) ms
