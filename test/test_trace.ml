open Chipsim
open Engine

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* -- minimal JSON validator --------------------------------------------- *)

exception Bad_json

(* strict recursive-descent check of the whole string: unescaped quotes,
   control characters or truncated structures in a trace all surface as a
   parse failure here, exactly as they would in chrome://tracing *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise Bad_json in
  let adv () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\n' | '\t' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c = if peek () <> c then raise Bad_json else adv () in
  let keyword k =
    String.iter (fun c -> if peek () <> c then raise Bad_json else adv ()) k
  in
  let digits () =
    let saw = ref false in
    while !pos < n && (match s.[!pos] with '0' .. '9' -> true | _ -> false) do
      adv ();
      saw := true
    done;
    if not !saw then raise Bad_json
  in
  let number () =
    if peek () = '-' then adv ();
    digits ();
    if !pos < n && s.[!pos] = '.' then begin
      adv ();
      digits ()
    end;
    if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      adv ();
      if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then adv ();
      digits ()
    end
  in
  let rec pstring () =
    expect '"';
    let rec go () =
      let c = peek () in
      adv ();
      match c with
      | '"' -> ()
      | '\\' -> (
          let e = peek () in
          adv ();
          match e with
          | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> go ()
          | 'u' ->
              for _ = 1 to 4 do
                (match peek () with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                | _ -> raise Bad_json);
                adv ()
              done;
              go ()
          | _ -> raise Bad_json)
      | c when Char.code c < 0x20 -> raise Bad_json
      | _ -> go ()
    in
    go ()
  and value () =
    skip_ws ();
    match peek () with
    | '{' ->
        adv ();
        skip_ws ();
        if peek () = '}' then adv ()
        else begin
          let rec members () =
            skip_ws ();
            pstring ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            if peek () = ',' then begin
              adv ();
              members ()
            end
            else expect '}'
          in
          members ()
        end
    | '[' ->
        adv ();
        skip_ws ();
        if peek () = ']' then adv ()
        else begin
          let rec elems () =
            value ();
            skip_ws ();
            if peek () = ',' then begin
              adv ();
              elems ()
            end
            else expect ']'
          in
          elems ()
        end
    | '"' -> pstring ()
    | 't' -> keyword "true"
    | 'f' -> keyword "false"
    | 'n' -> keyword "null"
    | c when c = '-' || (c >= '0' && c <= '9') -> number ()
    | _ -> raise Bad_json
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Bad_json -> false

(* -- unit tests --------------------------------------------------------- *)

let test_records_and_serializes () =
  let t = Trace.create () in
  Trace.task_quantum t ~worker:0 ~core:3 ~task_id:7 ~start_ns:100.0 ~end_ns:400.0;
  Trace.migration t ~worker:1 ~from_core:3 ~to_core:9 ~at_ns:500.0;
  Trace.instant t ~name:"phase" ~at_ns:700.0;
  Alcotest.(check int) "three events" 3 (Trace.num_events t);
  let json = Trace.to_chrome_json [ t ] in
  Alcotest.(check bool) "array" true
    (String.length json > 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  Alcotest.(check bool) "quantum event present" true
    (contains json {|"cat":"quantum"|});
  Alcotest.(check bool) "real task id in args" true (contains json {|"task":7|});
  Alcotest.(check bool) "migration event present" true
    (contains json {|"migrate 3->9"|})

let test_empty () =
  let t = Trace.create () in
  Alcotest.(check int) "no events" 0 (Trace.num_events t);
  Alcotest.(check string) "empty json" "[]" (Trace.to_chrome_json [ t ])

let test_ring_wraparound () =
  let t = Trace.create ~capacity:8 () in
  for i = 0 to 19 do
    Trace.instant t ~name:(string_of_int i) ~at_ns:(float_of_int i)
  done;
  Alcotest.(check int) "capacity retained" 8 (Trace.num_events t);
  Alcotest.(check int) "overflow counted" 12 (Trace.dropped t);
  let names =
    List.filter_map
      (function Trace.Instant { name; _ } -> Some name | _ -> None)
      (Trace.events t)
  in
  Alcotest.(check (list string)) "newest events survive, oldest first"
    [ "12"; "13"; "14"; "15"; "16"; "17"; "18"; "19" ]
    names;
  Alcotest.(check bool) "json still valid after wrap" true
    (json_valid (Trace.to_chrome_json [ t ]))

let test_json_escaping_all_kinds () =
  let t = Trace.create () in
  (* one of every event kind, with hostile names where names are free-form *)
  Trace.task_quantum t ~worker:0 ~core:1 ~task_id:42 ~start_ns:0.0 ~end_ns:10.0;
  Trace.steal t ~thief:1 ~victim:0 ~task_id:42 ~at_ns:5.0;
  Trace.park t ~worker:1 ~at_ns:6.0;
  Trace.migration t ~worker:0 ~from_core:1 ~to_core:2 ~at_ns:7.0;
  Trace.spread_change t ~worker:0 ~old_spread:1 ~new_spread:2 ~at_ns:8.0;
  Trace.mode_switch t ~from_mode:"cache\"centric" ~to_mode:"location\\centric"
    ~at_ns:9.0;
  Trace.job t ~phase:Trace.Admit ~tenant:{|te"nant|} ~kind:"bfs\nnested"
    ~job_id:0 ~at_ns:11.0;
  Trace.counter t ~name:{|fi"lls|} ~at_ns:12.0
    ~series:[ ("local", 3.0); ({|dr\am|}, 4.0) ];
  Trace.instant t ~name:"quote \" backslash \\ newline \n tab \t" ~at_ns:13.0;
  let json = Trace.to_chrome_json [ t ] in
  Alcotest.(check bool) "hostile names produce valid json" true (json_valid json);
  Alcotest.(check bool) "counter channel present" true (contains json {|"ph":"C"|});
  Alcotest.(check bool) "job category present" true (contains json {|"cat":"job"|});
  let s = Trace.summary t in
  Alcotest.(check bool) "summary covers categories" true
    (contains s "quantum" && contains s "steal" && contains s "job");
  (* a serving report escapes a tenant name with the same escaper: tab
     and carriage return as [\t] and [\r] *)
  let inst =
    Harness.Systems.make ~cache_scale:16 Harness.Systems.Charm Harness.Systems.Amd_milan
      ~n_workers:4 ()
  in
  let base = Serving.Server.default_config ~seed:3 in
  let tenant = { (List.hd base.Serving.Server.tenants) with name = "tab\tcr\r"; jobs = 2 } in
  let cfg =
    {
      base with
      Serving.Server.tenants = [ tenant ];
      data = { Serving.Job.default_data_config with graph_scale = 6 };
    }
  in
  let report = Serving.Server.report_to_json (Serving.Server.run inst cfg) in
  Alcotest.(check bool) "tenant name with tab and cr: valid report json" true
    (json_valid report);
  Alcotest.(check bool) "tab and cr escaped as \\t and \\r" true
    (contains report {|tab\tcr\r|})

let test_sched_emits_with_real_ids () =
  let m = Machine.create (Presets.amd_milan ()) in
  let sched = Sched.create m ~n_workers:2 ~placement:(fun w -> w) in
  let t = Trace.create () in
  Sched.set_trace sched (Some t);
  (* all work spawned on worker 0: worker 1 can only run what it steals *)
  for _ = 1 to 8 do
    ignore
      (Sched.spawn sched ~worker:0 (fun ctx ->
           Sched.Ctx.work ctx 300.0;
           Sched.Ctx.yield ctx;
           Sched.Ctx.work ctx 300.0))
  done;
  ignore (Sched.run sched : float);
  let quanta = ref 0 and steals = ref 0 and bad_id = ref 0 in
  List.iter
    (function
      | Trace.Quantum { task_id; _ } ->
          incr quanta;
          if task_id < 0 then incr bad_id
      | Trace.Steal _ -> incr steals
      | _ -> ())
    (Trace.events t);
  Alcotest.(check bool) "a quantum per task quantum" true (!quanta >= 16);
  Alcotest.(check int) "no placeholder task ids" 0 !bad_id;
  Alcotest.(check bool) "idle worker stole" true (!steals >= 1);
  Alcotest.(check bool) "valid chrome json" true (json_valid (Trace.to_chrome_json [ t ]))

let test_quanta_never_overlap_per_worker () =
  let m = Machine.create (Presets.amd_milan ()) in
  let sched = Sched.create m ~n_workers:4 ~placement:(fun w -> w) in
  let t = Trace.create () in
  Sched.set_trace sched (Some t);
  for i = 0 to 31 do
    ignore
      (Sched.spawn sched ~worker:(i mod 4) (fun ctx ->
           for _ = 1 to 3 do
             Sched.Ctx.work ctx 100.0;
             Sched.Ctx.yield ctx
           done))
  done;
  ignore (Sched.run sched : float);
  let last_end = Array.make 4 0.0 in
  let checked = ref 0 in
  List.iter
    (function
      | Trace.Quantum { worker; start_ns; end_ns; _ } ->
          incr checked;
          Alcotest.(check bool) "start before end" true (start_ns <= end_ns);
          Alcotest.(check bool) "no overlap with previous quantum" true
            (start_ns >= last_end.(worker));
          last_end.(worker) <- end_ns
      | _ -> ())
    (Trace.events t);
  Alcotest.(check bool) "quanta were checked" true (!checked >= 32)

(* -- serve-mode determinism --------------------------------------------- *)

let serve_trace seed =
  let inst =
    Harness.Systems.make ~cache_scale:16 Harness.Systems.Charm
      Harness.Systems.Amd_milan ~n_workers:8 ()
  in
  let tr = Trace.create () in
  let base = Serving.Server.default_config ~seed in
  let cfg =
    {
      base with
      Serving.Server.tenants =
        [
          {
            Serving.Server.name = "t0";
            weight = 1.0;
            slo_factor = 3.0;
            process = Serving.Arrivals.Open_loop { rate_per_s = 20_000.0 };
            jobs = 8;
            mix = [ (Serving.Job.Gups 2048, 1) ];
            replicas = 1;
          };
        ];
      data = { Serving.Job.default_data_config with graph_scale = 8 };
      trace = Some tr;
    }
  in
  ignore (Serving.Server.run inst cfg : Serving.Server.report);
  Trace.to_chrome_json [ tr ]

let test_serve_trace_deterministic () =
  let a = serve_trace 42 and b = serve_trace 42 in
  Alcotest.(check bool) "same seed, byte-identical trace" true (a = b);
  Alcotest.(check bool) "valid chrome json" true (json_valid a);
  Alcotest.(check bool) "job lifecycle recorded" true
    (contains a {|"phase":"admit"|} && contains a {|"phase":"finish"|});
  Alcotest.(check bool) "fill-class counter track recorded" true
    (contains a {|"name":"fills"|} && contains a {|"ph":"C"|})

(* a batch GUPS run under CHARM, traced through every runtime layer as
   charm_run --trace does, serializes to valid JSON *)
let test_charm_batch_trace_valid () =
  let inst = Harness.Systems.make ~cache_scale:32 Harness.Systems.Charm Harness.Systems.Amd_milan ~n_workers:16 () in
  let tr = Trace.create () in
  Charm.Runtime.attach_trace (Option.get inst.Harness.Systems.charm) tr;
  ignore
    (Workloads.Gups.run inst.Harness.Systems.env
       { Workloads.Gups.default_params with Workloads.Gups.updates = 1 lsl 12 }
      : Workloads.Workload_result.t);
  Alcotest.(check bool) "quanta recorded" true (Trace.num_events tr > 0);
  Alcotest.(check bool) "valid chrome json" true (json_valid (Trace.to_chrome_json [ tr ]))

(* Fig. 3's fill mix, sampled by the scheduler into any attached trace:
   a traced batch BFS gets a [fills] counter track whose samples lie at
   least 50 us of virtual time apart, and whose deltas plus the tail
   since the last sample add up to the machine's own fill-class totals.
   A closing compute-only quantum 50 us past the last sample flushes that
   tail into one more sample, so the deltas must then sum to the totals
   exactly.  Checked for CHARM and for one baseline. *)
let test_batch_fill_track sys () =
  let inst = Harness.Systems.make sys Harness.Systems.Amd_milan ~n_workers:16 () in
  let env = inst.Harness.Systems.env and machine = inst.Harness.Systems.machine in
  let sched = env.Workloads.Exec_env.sched in
  let tr = Trace.create () in
  Sched.set_trace sched (Some tr);
  let g =
    Workloads.Csr.of_kronecker ~alloc:env.Workloads.Exec_env.alloc_shared
      (Workloads.Kronecker.generate ~seed:3 ~scale:10 ~edge_factor:16 ())
  in
  ignore (Workloads.Bfs.run env g ~source:0 : int array * Workloads.Workload_result.t);
  let samples () =
    List.filter_map
      (function
        | Trace.Counter { name = "fills"; at_ns; series } ->
            let v k = int_of_float (List.assoc k series) in
            Some
              ( at_ns,
                { Pmu.fc_local = v "local"; fc_remote_chiplet = v "remote_chiplet";
                  fc_remote_numa = v "remote_numa"; fc_dram = v "dram" } )
        | _ -> None)
      (Trace.events tr)
  in
  let sum l =
    List.fold_left
      (fun (a : Pmu.fill_classes) (_, (d : Pmu.fill_classes)) ->
        { Pmu.fc_local = a.fc_local + d.fc_local;
          fc_remote_chiplet = a.fc_remote_chiplet + d.fc_remote_chiplet;
          fc_remote_numa = a.fc_remote_numa + d.fc_remote_numa; fc_dram = a.fc_dram + d.fc_dram })
      Pmu.zero_fill_classes l
  in
  let during = samples () in
  if List.length during < 2 then Alcotest.failf "%d fills samples" (List.length during);
  let rec spaced = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if b -. a < 50_000.0 then Alcotest.failf "samples at %g and %g ns" a b;
        spaced rest
    | _ -> ()
  in
  spaced during;
  let tail = Pmu.fill_classes_delta ~before:(sum during) ~after:(Pmu.fill_classes (Machine.pmu machine)) in
  Sched.sync_clocks sched;
  ignore (Sched.spawn sched ~worker:0 (fun ctx -> Sched.Ctx.work ctx 50_000.0) : Sched.task);
  ignore (Sched.run sched : float);
  let after = samples () in
  Alcotest.(check int) "the closing quantum samples once" (List.length during + 1) (List.length after);
  Alcotest.(check bool) "its delta is the tail" true (snd (List.nth after (List.length during)) = tail);
  Alcotest.(check bool) "deltas sum to the machine's fill classes" true
    (sum after = Pmu.fill_classes (Machine.pmu machine))

(* CHARM's decisions — Alg. 1 spread changes, adaptive mode switches and
   health flags with their counter track — record into the scheduler's
   one trace, so a trace attached with [Sched.set_trace] holds the same
   decision events as one attached with [Runtime.attach_trace].  The run
   is CI's faulted serving run, which makes all three kinds. *)
let test_charm_decisions_reach_sched_trace () =
  let decisions attach =
    let topo = Harness.Systems.topology Harness.Systems.Amd_milan ~cache_scale:1 in
    let faults =
      Faults.Schedule.parse_exn ~topo
        "3000:dvfs:0:0.35;3000:l3-ways:0:2;3000:link:0:6;5000:core-off:2;6000:core-on:2"
    in
    let inst =
      Harness.Systems.make ~faults Harness.Systems.Charm Harness.Systems.Amd_milan ~n_workers:32
        ()
    in
    let tr = Trace.create () in
    attach inst tr;
    ignore (Serving.Server.run inst (Serving.Server.default_config ~seed:42) : Serving.Server.report);
    List.filter
      (function
        | Trace.Spread_change _ | Trace.Mode_switch _ -> true
        | Trace.Instant { name; _ } -> String.starts_with ~prefix:"health:" name
        | Trace.Counter { name; _ } -> name = "health"
        | _ -> false)
      (Trace.events tr)
  in
  let via_runtime =
    decisions (fun inst tr -> Charm.Runtime.attach_trace (Option.get inst.Harness.Systems.charm) tr)
  in
  let via_sched =
    decisions (fun inst tr ->
        Sched.set_trace inst.Harness.Systems.env.Workloads.Exec_env.sched (Some tr))
  in
  let count p l = List.length (List.filter p l) in
  let kinds =
    [
      ("spread changes", function Trace.Spread_change _ -> true | _ -> false);
      ("mode switches", function Trace.Mode_switch _ -> true | _ -> false);
      ("health flags", function Trace.Instant _ -> true | _ -> false);
    ]
  in
  List.iter
    (fun (what, p) ->
      if count p via_runtime = 0 then Alcotest.failf "the run records no %s" what;
      Alcotest.(check int) (what ^ " via Sched.set_trace") (count p via_runtime) (count p via_sched))
    kinds;
  Alcotest.(check bool) "the same decision events" true (via_sched = via_runtime)

let suite =
  [
    Alcotest.test_case "records and serializes" `Quick test_records_and_serializes;
    Alcotest.test_case "empty trace" `Quick test_empty;
    Alcotest.test_case "ring wraparound keeps newest" `Quick test_ring_wraparound;
    Alcotest.test_case "escaping: every kind parses" `Quick test_json_escaping_all_kinds;
    Alcotest.test_case "scheduler emits real task ids" `Quick test_sched_emits_with_real_ids;
    Alcotest.test_case "quanta never overlap per worker" `Quick
      test_quanta_never_overlap_per_worker;
    Alcotest.test_case "serve trace deterministic" `Quick test_serve_trace_deterministic;
    Alcotest.test_case "charm batch trace is valid json" `Quick test_charm_batch_trace_valid;
    Alcotest.test_case "charm batch fill track sums to the pmu" `Quick
      (test_batch_fill_track Harness.Systems.Charm);
    Alcotest.test_case "ring batch fill track sums to the pmu" `Quick
      (test_batch_fill_track Harness.Systems.Ring);
    Alcotest.test_case "charm decisions reach a scheduler trace" `Quick
      test_charm_decisions_reach_sched_trace;
  ]
