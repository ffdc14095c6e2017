(* CHARM's runtime through the one driver every run uses: Systems.make
   builds the instance (CHARM_Init), Exec_env.run submits a main task,
   Engine.Par / Engine.Barrier are the in-task API and Systems.report is
   CHARM_Finalize. *)

module Sched = Engine.Sched
module Runtime = Charm.Runtime
module Systems = Harness.Systems
module Exec_env = Workloads.Exec_env

let make ?(cache_scale = 1) ~n_workers () =
  let inst = Systems.make ~cache_scale Systems.Charm Systems.Amd_milan ~n_workers () in
  (inst, Option.get inst.Systems.charm)

let run inst main = Exec_env.run inst.Systems.env main

let test_init_places_compactly () =
  let _inst, rt = make ~n_workers:8 () in
  let sched = Runtime.sched rt in
  for w = 0 to 7 do
    Alcotest.(check int) "compact core" w (Sched.worker_core sched w)
  done

let test_init_clamps_spread () =
  (* 64 workers cannot start at spread 1; init must clamp to 8 *)
  let _inst, rt = make ~n_workers:64 () in
  Alcotest.(check int) "clamped initial spread" 8
    (Charm.Policy.spread_rate (Runtime.policy rt) ~worker:0)

let test_run_and_makespan () =
  let inst, _rt = make ~n_workers:4 () in
  let makespan = run inst (fun ctx -> Sched.Ctx.work ctx 1234.0) in
  Alcotest.(check bool) "makespan covers work" true (makespan >= 1234.0)

let test_all_do_runs_every_worker () =
  let inst, _rt = make ~n_workers:6 () in
  let seen = Array.make 6 false in
  ignore
    (run inst (fun ctx -> Engine.Par.all_do ctx (fun _ctx w -> seen.(w) <- true))
      : float);
  Alcotest.(check bool) "all workers ran" true (Array.for_all Fun.id seen)

let test_parallel_for_covers_range () =
  let inst, _rt = make ~n_workers:4 () in
  let n = 1000 in
  let hits = Array.make n 0 in
  ignore
    (run inst (fun ctx ->
         Engine.Par.parallel_for ctx ~lo:0 ~hi:n (fun _ctx' lo hi ->
             for i = lo to hi - 1 do
               hits.(i) <- hits.(i) + 1
             done))
      : float);
  Alcotest.(check bool) "each index exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

(* [all_do] sends each worker its closure as a paper-style [call] *)
let test_call_runs_on_target () =
  let inst, _rt = make ~n_workers:4 () in
  let ran_on = Array.make 4 (-1) in
  ignore
    (run inst (fun ctx ->
         Engine.Par.all_do ctx (fun ctx' w -> ran_on.(w) <- Sched.Ctx.worker_id ctx'))
      : float);
  Alcotest.(check (array int)) "each call on its worker" [| 0; 1; 2; 3 |] ran_on

let test_call_pays_message_latency () =
  let inst, _rt = make ~n_workers:64 () in
  let start_time = ref 0.0 in
  ignore
    (run inst (fun ctx ->
         (* worker 63 is on another chiplet; message latency > 0 *)
         Engine.Par.all_do ctx (fun ctx' w ->
             if w = 63 then start_time := Sched.Ctx.now ctx'))
      : float);
  Alcotest.(check bool) "message delayed" true (!start_time > 0.0)

let test_barrier_api () =
  let inst, _rt = make ~n_workers:4 () in
  let b = Engine.Barrier.create 4 in
  let after = ref 0 in
  ignore
    (run inst (fun ctx ->
         Engine.Par.all_do ctx (fun ctx' _w ->
             Engine.Barrier.wait ctx' b;
             incr after))
      : float);
  Alcotest.(check int) "all through" 4 !after

let test_finalize_reports () =
  let inst, _rt = make ~n_workers:2 () in
  let makespan = run inst (fun ctx -> Sched.Ctx.work ctx 10.0) in
  let report = Systems.report inst in
  Alcotest.(check bool) "tasks executed" true (report.Engine.Stats.tasks_executed >= 1);
  Alcotest.(check bool) "switches counted" true (report.Engine.Stats.context_switches >= 1);
  Alcotest.(check (float 0.0)) "makespan covers the run" makespan
    report.Engine.Stats.makespan_ns

let test_adaptation_under_pressure () =
  (* a working set that exceeds per-chiplet L3 even at full spread keeps
     the remote-fill rate high, so the policy must spread and stay spread
     (at the capacity boundary Alg. 1 oscillates by design — it has no
     hysteresis — so the probe uses unambiguous pressure) *)
  (* cache scale 16: 2 MB L3 per chiplet *)
  let inst, rt = make ~cache_scale:16 ~n_workers:8 () in
  let region =
    inst.Systems.env.Exec_env.alloc_shared ~elt_bytes:8 ~count:(1 lsl 22)
  in
  (* 32 MB across 8 workers: 4 MB per worker > any slice *)
  ignore
    (run inst (fun ctx ->
         Engine.Par.all_do ctx (fun ctx' w ->
             let chunk = (1 lsl 22) / 8 in
             for _pass = 1 to 3 do
               Sched.Ctx.read_range ctx' region ~lo:(w * chunk) ~hi:((w + 1) * chunk);
               Sched.Ctx.yield ctx'
             done))
      : float);
  let policy = Runtime.policy rt in
  let max_spread = ref 0 in
  for w = 0 to 7 do
    max_spread := max !max_spread (Charm.Policy.spread_rate policy ~worker:w)
  done;
  Alcotest.(check bool) "spread grew beyond 1" true (!max_spread > 1);
  let st = Charm.Policy.stats policy in
  Alcotest.(check bool) "policy made spread decisions" true
    (st.Charm.Policy.spreads > 0)

let suite =
  [
    Alcotest.test_case "init compact placement" `Quick test_init_places_compactly;
    Alcotest.test_case "init clamps spread" `Quick test_init_clamps_spread;
    Alcotest.test_case "run returns makespan" `Quick test_run_and_makespan;
    Alcotest.test_case "all_do covers workers" `Quick test_all_do_runs_every_worker;
    Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for_covers_range;
    Alcotest.test_case "call on target worker" `Quick test_call_runs_on_target;
    Alcotest.test_case "call pays message latency" `Quick test_call_pays_message_latency;
    Alcotest.test_case "barrier API" `Quick test_barrier_api;
    Alcotest.test_case "finalize reports" `Quick test_finalize_reports;
    Alcotest.test_case "adapts under cache pressure" `Quick test_adaptation_under_pressure;
  ]
