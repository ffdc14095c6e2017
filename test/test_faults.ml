(* Fault injection: spec grammar determinism, scheduler reaction to
   offline/DVFS events, health-monitor detection, and byte-identical
   traced runs under a fault schedule. *)

open Chipsim
module Schedule = Faults.Schedule
module Sched = Engine.Sched

let topo () = Presets.amd_milan ()
let machine () = Machine.create (topo ())

(* -- spec grammar ------------------------------------------------------ *)

let test_parse_round_trip () =
  let topo = topo () in
  let spec =
    "100:core-off:3; 250:dvfs:5:0.5; 300:l3-ways:1:4\n\
     # a comment\n\
     400:link:2:6.0; 500:xsocket:2.0; 600:membw:0:0.25; 700:core-on:3"
  in
  let sched = Schedule.parse_exn ~topo spec in
  Alcotest.(check int) "seven events" 7 (List.length sched);
  let reparsed = Schedule.parse_exn ~topo (Schedule.to_spec sched) in
  Alcotest.(check bool) "round-trips" true (sched = reparsed)

(* random schedules carry full-precision times and factors: the printed
   spec must parse back to the identical events, not merely as many *)
let test_random_schedules_roundtrip () =
  let topo = topo () in
  for seed = 0 to 199 do
    let sched = Schedule.random ~topo ~seed ~n:8 ~horizon_us:20_000.0 in
    let spec = Schedule.to_spec sched in
    if Schedule.parse_exn ~topo spec <> sched then
      Alcotest.failf "seed %d: %s does not parse back to the same schedule" seed spec
  done;
  (* times print in microseconds without losing the nanosecond value *)
  List.iter
    (fun at_ns ->
      let sched = [ { Schedule.at_ns; kind = Schedule.Core_off 1 } ] in
      if Schedule.parse_exn ~topo (Schedule.to_spec sched) <> sched then
        Alcotest.failf "%.17g ns: %s" at_ns (Schedule.to_spec sched))
    [ 0.0; 1.0; 500.0; 3e6; 645648.123456789; 1e-9; 1e25; 0.1 +. 0.2 ];
  Alcotest.(check string) "short times stay short" "0.5:core-on:2;3000:core-off:1"
    (Schedule.to_spec
       [
         { Schedule.at_ns = 3e6; kind = Schedule.Core_off 1 };
         { Schedule.at_ns = 500.0; kind = Schedule.Core_on 2 };
       ]);
  (* the draw order is part of every recorded [rand:] schedule: pin one
     that covers all six event kinds *)
  Alcotest.(check string) "seed 7 draws pinned"
    "56.858828668929214:core-off:110;850.9048911008598:membw:0:0.615711163702351;\
     1917.8040099427318:l3-ways:11:9;2417.8950214490853:core-on:103;\
     2621.7297083896565:l3-ways:6:5;3023.4871916821744:l3-ways:9:1;\
     3318.4376353350794:core-off:89;4007.2978436300677:link:3:7.423892542258358;\
     4639.139488358511:core-on:0;4865.3171985070085:dvfs:39:0.7582834735850588"
    (Schedule.to_spec (Schedule.random ~topo ~seed:7 ~n:10 ~horizon_us:5000.0))

(* a planted bug is one more event kind: every name parses and prints
   back, and the fuzzer's random draws never contain one *)
let test_plants_round_trip () =
  let topo = topo () in
  List.iter
    (fun (name, p) ->
      let spec = "0:plant:" ^ name in
      let sched = Schedule.parse_exn ~topo spec in
      Alcotest.(check bool) (name ^ " parses") true
        (sched = [ { Schedule.at_ns = 0.0; kind = Schedule.Plant p } ]);
      Alcotest.(check string) (name ^ " prints") spec (Schedule.to_spec sched);
      Alcotest.(check bool) (name ^ " round-trips") true
        (Schedule.parse_exn ~topo (Schedule.to_spec sched) = sched);
      Alcotest.(check string) (name ^ " described") ("plant " ^ name)
        (Schedule.describe (Schedule.Plant p)))
    Invariant.plants;
  (match Schedule.parse ~topo "0:plant:frob" with
  | Ok _ -> Alcotest.fail "accepted an unknown plant"
  | Error _ -> ());
  for seed = 0 to 999 do
    List.iter
      (fun { Schedule.kind; _ } ->
        match kind with
        | Schedule.Plant _ -> Alcotest.failf "seed %d drew a plant" seed
        | _ -> ())
      (Schedule.random ~topo ~seed ~n:8 ~horizon_us:5000.0)
  done

let test_parse_rand_deterministic () =
  let topo = topo () in
  let parse seed =
    Schedule.parse_exn ~topo (Printf.sprintf "rand:%d:20:5000" seed)
  in
  Alcotest.(check int) "count" 20 (List.length (parse 7));
  Alcotest.(check bool) "same seed, same schedule" true (parse 7 = parse 7);
  Alcotest.(check bool) "different seed differs" true (parse 7 <> parse 8)

let test_parse_rejects () =
  let topo = topo () in
  let bad spec =
    match Schedule.parse ~topo spec with
    | Ok _ -> Alcotest.failf "accepted %S" spec
    | Error _ -> ()
  in
  bad "100:frobnicate:1";
  bad "100:core-off:9999";
  bad "100:dvfs:0:0";
  bad "100:l3-ways:99:2";
  bad "not-a-time:core-off:1";
  bad "100:membw:0:1.5"

(* -- scheduler reaction ------------------------------------------------ *)

(* workers able to run tasks: those not dormant *)
let active_workers sched =
  List.length
    (List.filter
       (fun w -> not (Sched.worker_offlined sched w))
       (List.init (Sched.n_workers sched) Fun.id))

let test_offline_migrates_when_cores_free () =
  (* plenty of spare cores: the evicted worker migrates instead of dying *)
  let m = machine () in
  let sched =
    Sched.create ~faults:(Schedule.parse_exn ~topo:(topo ()) "5:core-off:1") m ~n_workers:4 ~placement:(fun w -> w)
  in
  let done_ = ref 0 in
  for _ = 1 to 64 do
    ignore
      (Sched.spawn sched (fun ctx ->
           Sched.Ctx.work ctx 500.0;
           incr done_))
  done;
  ignore (Sched.run sched : float);
  Alcotest.(check int) "all tasks completed" 64 !done_;
  Alcotest.(check bool) "worker moved off core 1" true
    (Sched.worker_core sched 1 <> 1);
  Alcotest.(check int) "core 1 vacated" (-1)
    (Sched.worker_of_core sched 1);
  Alcotest.(check int) "nobody lost" 4 (active_workers sched)

let test_offline_drains_and_completes () =
  (* every core owned: no migration target, so the worker offlines in
     place and its queue drains to a neighbour *)
  let m = machine () in
  let topo = topo () in
  let n = Chipsim.Topology.num_cores topo in
  let sched =
    Sched.create ~faults:(Schedule.parse_exn ~topo "5:core-off:1") m ~n_workers:n
      ~placement:(fun w -> w)
  in
  let done_ = ref 0 in
  for _ = 1 to 4 * n do
    ignore
      (Sched.spawn sched (fun ctx ->
           Sched.Ctx.work ctx 3_000.0;
           incr done_))
  done;
  ignore (Sched.run sched : float);
  Alcotest.(check int) "all tasks completed" (4 * n) !done_;
  Alcotest.(check bool) "worker on core 1 offlined" true
    (Sched.worker_offlined sched 1);
  Alcotest.(check int) "one worker out" (n - 1) (active_workers sched)

let test_core_on_restores () =
  let m = machine () in
  let sched =
    Sched.create
      ~faults:(Schedule.parse_exn ~topo:(topo ()) "2:core-off:1; 20:core-on:1")
      m ~n_workers:2 ~placement:(fun w -> w)
  in
  let done_ = ref 0 in
  for _ = 1 to 64 do
    ignore
      (Sched.spawn sched (fun ctx ->
           Sched.Ctx.work ctx 2_000.0;
           incr done_))
  done;
  ignore (Sched.run sched : float);
  Alcotest.(check int) "all tasks completed" 64 !done_;
  Alcotest.(check bool) "worker back online" false
    (Sched.worker_offlined sched 1);
  Alcotest.(check int) "both workers active" 2 (active_workers sched)

let test_dvfs_scales_makespan () =
  let run spec =
    let m = machine () in
    let faults = Option.map (Schedule.parse_exn ~topo:(topo ())) spec in
    let sched = Sched.create ?faults m ~n_workers:1 ~placement:(fun w -> w) in
    for _ = 1 to 32 do
      ignore (Sched.spawn sched (fun ctx -> Sched.Ctx.work ctx 1_000.0))
    done;
    Sched.run sched
  in
  let nominal = run None in
  let throttled = run (Some "0:dvfs:0:0.5") in
  let ratio = throttled /. nominal in
  Alcotest.(check bool)
    (Printf.sprintf "half speed ~ 2x makespan (got %.2f)" ratio)
    true
    (ratio > 1.9 && ratio < 2.1)

(* -- health monitor ---------------------------------------------------- *)

(* Drive real cross-chiplet traffic through the machine: two cores on
   different chiplets write the same line set in turn, so every round the
   observed core pulls all the lines back through its I/O-die link (both
   sides write — a read would be served by the untouched private L2).
   Each round feeds the monitor one observation for the observed core,
   through a one-worker scheduler on that core whose clock the round
   sets. *)
let observe_at monitor sched ~now =
  Sched.charge sched ~worker:0 (now -. Sched.worker_clock sched 0);
  Charm.Health_monitor.observe monitor sched ~worker:0

let traffic_round m ~monitor ~sched ~round =
  let observed = 0 and peer = 8 in
  let line_bytes = (Machine.topology m).Topology.line_bytes in
  let now = [| float_of_int round *. 50_000.0 |] in
  for line = 0 to 63 do
    Machine.access_clk m ~core:peer ~write:true (line * line_bytes) now 0
  done;
  for line = 0 to 63 do
    Machine.access_clk m ~core:observed ~write:true (line * line_bytes) now 0
  done;
  observe_at monitor sched ~now:now.(0)

let test_silent_fault_detected () =
  let m = machine () in
  let monitor = Charm.Health_monitor.create m ~n_workers:1 in
  let sched = Sched.create m ~n_workers:1 ~placement:(fun _ -> 0) in
  for round = 0 to 9 do
    traffic_round m ~monitor ~sched ~round
  done;
  Alcotest.(check (list int)) "healthy under baseline traffic" []
    (Charm.Health_monitor.sick_chiplets monitor);
  (* silent degradation: link multiplier is invisible to the OS path *)
  Modifiers.set_link_mult (Machine.modifiers m) 0 8.0;
  let detected_after = ref None in
  (try
     for round = 10 to 40 do
       traffic_round m ~monitor ~sched ~round;
       if Charm.Health_monitor.sick monitor ~chiplet:0 then begin
         detected_after := Some (round - 10);
         raise Exit
       end
     done
   with Exit -> ());
  (match !detected_after with
  | Some rounds ->
      Alcotest.(check bool)
        (Printf.sprintf "detected within 10 samples (took %d)" rounds)
        true (rounds <= 10)
  | None -> Alcotest.fail "silent link fault never detected");
  Alcotest.(check bool) "first flag recorded" true
    (match Charm.Health_monitor.events monitor with
    | { Charm.Health_monitor.chiplet = 0; sick = true; _ } :: _ -> true
    | _ -> false)

let test_os_visible_fault_instant () =
  let m = machine () in
  let monitor = Charm.Health_monitor.create m ~n_workers:1 in
  let sched = Sched.create m ~n_workers:1 ~placement:(fun _ -> 0) in
  Modifiers.set_core_speed (Machine.modifiers m) 3 0.4;
  (* one observation, no EWMA history needed: DVFS is read from the
     modifier generation, i.e. sysfs on a real machine *)
  observe_at monitor sched ~now:1_000.0;
  Alcotest.(check bool) "chiplet 0 flagged instantly" true
    (Charm.Health_monitor.sick monitor ~chiplet:0);
  Alcotest.(check (list int)) "only chiplet 0" [ 0 ]
    (Charm.Health_monitor.sick_chiplets monitor)

(* A fault schedule is a [Systems.make] argument for every system alike:
   a core-off given for a baseline (RING) lands where one given for CHARM
   does, at the first event-loop frontier that reaches its time.  A
   fault-free run finds that frontier, the first pick at or after the
   fault's time, and the core whose quantum that pick starts.  Taking
   that core offline at that time, the same run must start no quantum
   there from the frontier on: the fault landed before the pick, and the
   core's worker left it.  A fault applied one pick late would let that
   quantum run on the dead core. *)
let test_pump_lands_for_every_system () =
  let module S = Harness.Systems in
  let at_ns = 5_000.0 in
  let run ?faults sys =
    let inst = S.make ~cache_scale:16 ?faults sys S.Amd_milan ~n_workers:8 () in
    let sched = inst.S.env.Workloads.Exec_env.sched in
    let tr = Engine.Trace.create () in
    Sched.set_trace sched (Some tr);
    for _ = 1 to 64 do
      ignore (Sched.spawn sched (fun ctx -> Sched.Ctx.work ctx 2_000.0) : Sched.task)
    done;
    ignore (Sched.run sched : float);
    (sched, Engine.Trace.events tr)
  in
  let landing sys =
    let name = S.sys_name sys in
    let frontier, core =
      match
        List.find_map
          (function
            | Engine.Trace.Quantum { start_ns; core; _ } when start_ns >= at_ns ->
                Some (start_ns, core)
            | _ -> None)
          (snd (run sys))
      with
      | Some first -> first
      | None -> Alcotest.failf "%s: no quantum starts after %g ns" name at_ns
    in
    let topo = S.topology S.Amd_milan ~cache_scale:16 in
    let faults = Schedule.parse_exn ~topo (Printf.sprintf "%g:core-off:%d" (at_ns /. 1e3) core) in
    let sched, events = run ~faults sys in
    Alcotest.(check bool) (name ^ ": fault stamped at its time") true
      (List.exists
         (function Engine.Trace.Fault { at_ns = t; _ } -> t = at_ns | _ -> false)
         events);
    List.iter
      (function
        | Engine.Trace.Quantum { core = c; start_ns; task_id; _ }
          when c = core && start_ns >= frontier ->
            Alcotest.failf "%s: task %d starts on offline core %d at %g ns (frontier %g ns)"
              name task_id core start_ns frontier
        | _ -> ())
      events;
    Alcotest.(check int) (name ^ ": core vacated") (-1) (Sched.worker_of_core sched core)
  in
  landing S.Charm;
  landing S.Ring

(* -- end-to-end determinism ------------------------------------------- *)

let test_faulted_serve_traces_identical () =
  let run () =
    let topo = Harness.Systems.topology Harness.Systems.Amd_milan ~cache_scale:16 in
    let inst =
      Harness.Systems.make ~cache_scale:16
        ~faults:(Schedule.parse_exn ~topo "300:dvfs:0:0.5; 500:link:0:4; 900:core-off:2")
        Harness.Systems.Charm Harness.Systems.Amd_milan ~n_workers:8 ()
    in
    let tr = Engine.Trace.create () in
    let base = Serving.Server.default_config ~seed:11 in
    let cfg =
      {
        base with
        Serving.Server.tenants =
          List.map
            (fun t -> { t with Serving.Server.jobs = 8 })
            base.Serving.Server.tenants;
        trace = Some tr;
      }
    in
    let report = Serving.Server.run inst cfg in
    (Serving.Server.report_to_json report, Engine.Trace.to_chrome_json [ tr ])
  in
  let json1, trace1 = run () in
  let json2, trace2 = run () in
  Alcotest.(check bool) "reports byte-identical" true (json1 = json2);
  Alcotest.(check bool) "traces byte-identical" true (trace1 = trace2);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let found = ref false in
    for i = 0 to n - m do
      if (not !found) && String.sub s i m = sub then found := true
    done;
    !found
  in
  Alcotest.(check bool) "fault events present" true
    (contains trace1 {|"cat":"fault"|});
  Alcotest.(check bool) "report carries admission and p999" true
    (contains json1 {|"admission":|} && contains json1 {|"p999":|})

let suite =
  [
    Alcotest.test_case "spec round-trip" `Quick test_parse_round_trip;
    Alcotest.test_case "random schedules round-trip exactly" `Quick
      test_random_schedules_roundtrip;
    Alcotest.test_case "rand expansion deterministic" `Quick
      test_parse_rand_deterministic;
    Alcotest.test_case "bad specs rejected" `Quick test_parse_rejects;
    Alcotest.test_case "plants round-trip, never drawn" `Quick test_plants_round_trip;
    Alcotest.test_case "offline core migrates" `Quick
      test_offline_migrates_when_cores_free;
    Alcotest.test_case "offline core drains" `Quick
      test_offline_drains_and_completes;
    Alcotest.test_case "core-on restores" `Quick test_core_on_restores;
    Alcotest.test_case "dvfs scales makespan" `Quick test_dvfs_scales_makespan;
    Alcotest.test_case "silent fault detected" `Quick test_silent_fault_detected;
    Alcotest.test_case "os-visible fault instant" `Quick
      test_os_visible_fault_instant;
    Alcotest.test_case "pump lands for every system" `Quick test_pump_lands_for_every_system;
    Alcotest.test_case "faulted serve deterministic" `Quick
      test_faulted_serve_traces_identical;
  ]
