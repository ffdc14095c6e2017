(* The scenario fuzzer itself: deterministic generation, clean smoke
   seeds, shrinking behaviour and repro rendering. *)

module Scenario = Check.Scenario
module Fuzz = Check.Fuzz
module E = Experiment

let contains s frag =
  let n = String.length s and m = String.length frag in
  let rec go i = i + m <= n && (String.sub s i m = frag || go (i + 1)) in
  go 0

let test_generation_deterministic () =
  for seed = 0 to 20 do
    let a = Scenario.generate ~mode:Scenario.Smoke ~seed in
    let b = Scenario.generate ~mode:Scenario.Smoke ~seed in
    if a <> b then Alcotest.failf "seed %d generated two different scenarios" seed
  done

let test_smoke_seeds_clean () =
  match Fuzz.run ~mode:Scenario.Smoke ~start_seed:0 ~seeds:4 () with
  | Fuzz.Clean { scenarios } -> Alcotest.(check int) "scenarios" 4 scenarios
  | Fuzz.Failed { minimized; _ } ->
      Alcotest.failf "unexpected failure:\n%s" (E.to_string minimized)

let scenario_with_faults () =
  (* walk seeds until generation yields a faulty single-machine scenario *)
  let rec go seed =
    let t = Scenario.generate ~mode:Scenario.Smoke ~seed in
    match t.E.workload with
    | (E.Batch _ | E.Serve _) when t.E.faults <> [] -> t
    | _ -> go (seed + 1)
  in
  go 0

let test_shrink_candidates () =
  let t = scenario_with_faults () in
  let cands = Scenario.shrink t in
  Alcotest.(check bool) "has candidates" true (cands <> []);
  List.iter
    (fun c -> if c = t then Alcotest.fail "shrink proposed the scenario itself")
    cands;
  (match cands with
  | first :: _ ->
      Alcotest.(check int) "first candidate drops the fault schedule" 0
        (Fuzz.fault_events first)
  | [] -> ());
  (* shrinking terminates: repeatedly taking the first candidate reaches a
     fixpoint *)
  let rec descend t steps =
    if steps > 200 then Alcotest.fail "shrink does not terminate"
    else match Scenario.shrink t with [] -> steps | c :: _ -> descend c (steps + 1)
  in
  ignore (descend t 0 : int)

let test_repro_rendering () =
  let seen_batch = ref false and seen_serve = ref false and seen_fleet = ref false in
  for seed = 0 to 60 do
    let t = Scenario.generate ~mode:Scenario.Smoke ~seed in
    let repro = E.to_string t in
    let has = contains repro in
    Alcotest.(check bool) "repro carries --check" true (has "--check");
    Alcotest.(check bool) "repro carries the seed" true
      (has (Printf.sprintf "--seed %d" seed));
    match t.E.workload with
    | E.Batch _ ->
        seen_batch := true;
        Alcotest.(check bool) "batch repro uses charm_run" true (has "charm_run -w");
        if t.E.faults <> [] then
          Alcotest.(check bool) "faulty repro carries --faults" true (has "--faults")
    | E.Serve _ ->
        seen_serve := true;
        Alcotest.(check bool) "serve repro uses charm_serve" true (has "charm_serve")
    | E.Fleet (_, f) ->
        seen_fleet := true;
        Alcotest.(check bool) "fleet repro uses --fleet" true
          (has (Printf.sprintf "--fleet %d" f.E.shards));
        Alcotest.(check bool) "fleet repro names the router policy" true (has "--router");
        if t.E.faults <> [] then
          Alcotest.(check bool) "fleet repro carries --faults-shard" true
            (has "--faults-shard")
  done;
  Alcotest.(check bool) "all scenario kinds exercised" true
    (!seen_batch && !seen_serve && !seen_fleet)

(* every drawn schedule, on any shard, prints to a spec that parses back
   to the identical events *)
let test_fault_spec_roundtrip () =
  let checked = ref 0 in
  for seed = 0 to 199 do
    let t = Scenario.generate ~mode:Scenario.Smoke ~seed in
    List.iter
      (fun (_, sched) ->
        let topo = Harness.Systems.topology t.E.machine ~cache_scale:t.E.cache_scale in
        let spec = Faults.Schedule.to_spec sched in
        incr checked;
        if Faults.Schedule.parse_exn ~topo spec <> sched then
          Alcotest.failf "seed %d: %s does not parse back to the same schedule" seed spec)
      t.E.faults
  done;
  Alcotest.(check bool) "schedules checked" true (!checked > 50)

let corrupts (t : E.t) =
  List.exists
    (fun (_, evs) ->
      List.exists
        (fun { Faults.Schedule.kind; _ } ->
          match kind with Faults.Schedule.Corruption _ -> true | _ -> false)
        evs)
    t.E.faults

let sched_of ~cache_scale sys machine ~n_workers =
  (Harness.Systems.make ~cache_scale sys machine ~n_workers ())
    .Harness.Systems.env
    .Workloads.Exec_env.sched

(* where a system pins its workers, the scheduler it builds starts them
   on exactly those cores *)
let test_pinned_cores () =
  let pinned = ref [] in
  List.iter
    (fun (name, sys) ->
      List.iter
        (fun n_workers ->
          match
            Harness.Systems.pinned_cores sys Harness.Systems.Amd_milan_1s ~cache_scale:16
              ~n_workers
          with
          | None -> ()
          | Some cores ->
              pinned := name :: !pinned;
              let sched = sched_of ~cache_scale:16 sys Harness.Systems.Amd_milan_1s ~n_workers in
              Array.iteri
                (fun w core ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s worker %d of %d" name w n_workers)
                    core
                    (Engine.Sched.worker_core sched w))
                cores)
        [ 2; 5; 12 ])
    Harness.Systems.systems;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " pins its workers") true (List.mem name !pinned))
    [ "ring"; "shoal" ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " moves its workers") false (List.mem name !pinned))
    [ "charm"; "os-default"; "asymsched" ]

(* A vote can mask an armed corruption only if the workers start on 2 or
   more chiplets: every generated scenario and every shrink candidate
   that carries one builds a scheduler whose workers do, and scatter-
   placed RING on the smoke preset still draws corruption cases. *)
let test_corruption_armed_where_maskable () =
  let hosted t =
    let sched = sched_of ~cache_scale:t.E.cache_scale t.E.sys t.E.machine ~n_workers:t.E.workers in
    match Serving.Job.worker_chiplets sched with Some a -> Array.length a | None -> 0
  in
  let ring_armed = ref 0 in
  for seed = 0 to 199 do
    let t = Scenario.generate ~mode:Scenario.Smoke ~seed in
    if corrupts t then begin
      if t.E.sys = Harness.Systems.Ring then incr ring_armed;
      List.iter
        (fun c ->
          if corrupts c && hosted c < 2 then
            Alcotest.failf "seed %d arms corruption on one chiplet: %s" seed (E.to_string c))
        (t :: Scenario.shrink t)
    end
  done;
  Alcotest.(check bool) "RING scenarios arm corruption" true (!ring_armed >= 10)

let suite =
  [
    Alcotest.test_case "generation deterministic" `Quick test_generation_deterministic;
    Alcotest.test_case "smoke seeds clean" `Slow test_smoke_seeds_clean;
    Alcotest.test_case "shrink candidates well-formed" `Quick test_shrink_candidates;
    Alcotest.test_case "repro rendering" `Quick test_repro_rendering;
    Alcotest.test_case "fault specs round-trip" `Quick test_fault_spec_roundtrip;
    Alcotest.test_case "pinned cores match the built scheduler" `Quick test_pinned_cores;
    Alcotest.test_case "corruption armed where a vote can mask it" `Quick
      test_corruption_armed_where_maskable;
  ]
