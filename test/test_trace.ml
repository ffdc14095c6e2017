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
  let json = Trace.to_chrome_json t in
  Alcotest.(check bool) "array" true
    (String.length json > 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  Alcotest.(check bool) "quantum event present" true
    (contains json {|"cat":"quantum"|});
  Alcotest.(check bool) "real task id in args" true (contains json {|"task":7|});
  Alcotest.(check bool) "migration event present" true
    (contains json {|"migrate 3->9"|})

let test_clear () =
  let t = Trace.create () in
  Trace.instant t ~name:"a" ~at_ns:1.0;
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.num_events t);
  Alcotest.(check string) "empty json" "[]" (Trace.to_chrome_json t)

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
    (json_valid (Trace.to_chrome_json t))

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
  let json = Trace.to_chrome_json t in
  Alcotest.(check bool) "hostile names produce valid json" true (json_valid json);
  Alcotest.(check bool) "counter channel present" true (contains json {|"ph":"C"|});
  Alcotest.(check bool) "job category present" true (contains json {|"cat":"job"|});
  let s = Trace.summary t in
  Alcotest.(check bool) "summary covers categories" true
    (contains s "quantum" && contains s "steal" && contains s "job")

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
  Alcotest.(check bool) "valid chrome json" true (json_valid (Trace.to_chrome_json t))

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
  Trace.to_chrome_json tr

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
  Alcotest.(check bool) "valid chrome json" true (json_valid (Trace.to_chrome_json tr))

let suite =
  [
    Alcotest.test_case "records and serializes" `Quick test_records_and_serializes;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "ring wraparound keeps newest" `Quick test_ring_wraparound;
    Alcotest.test_case "escaping: every kind parses" `Quick test_json_escaping_all_kinds;
    Alcotest.test_case "scheduler emits real task ids" `Quick test_sched_emits_with_real_ids;
    Alcotest.test_case "quanta never overlap per worker" `Quick
      test_quanta_never_overlap_per_worker;
    Alcotest.test_case "serve trace deterministic" `Quick test_serve_trace_deterministic;
    Alcotest.test_case "charm batch trace is valid json" `Quick test_charm_batch_trace_valid;
  ]
