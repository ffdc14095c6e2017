open Chipsim
open Engine

let machine () = Machine.create (Presets.amd_milan ())

let test_migrate () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:2 ~placement:(fun w -> w) in
  Sched.migrate sched ~worker:0 ~core:32;
  Alcotest.(check int) "new core" 32 (Sched.worker_core sched 0);
  Alcotest.(check int) "ownership moved" 0 (Sched.worker_of_core sched 32);
  Alcotest.(check int) "old core free" (-1) (Sched.worker_of_core sched 0);
  Alcotest.(check bool) "migration charged" true (Sched.worker_clock sched 0 > 0.0);
  Alcotest.(check int) "pmu migration" 1 (Pmu.read (Machine.pmu m) ~core:32 Pmu.Migration);
  Alcotest.check_raises "occupied target"
    (Invalid_argument "Sched.migrate: core 1 already owned by worker 1") (fun () ->
      Sched.migrate sched ~worker:0 ~core:1)

let test_placement_collision_rejected () =
  let m = machine () in
  try
    ignore (Sched.create m ~n_workers:2 ~placement:(fun _ -> 3));
    Alcotest.fail "accepted colliding placement"
  with Invalid_argument _ -> ()

let test_deadlock_detected () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:1 ~placement:(fun w -> w) in
  ignore
    (Sched.spawn sched (fun ctx ->
         (* suspend onto a wait list that never wakes us *)
         Sched.Ctx.suspend ctx (fun _task -> ())));
  Alcotest.check_raises "deadlock" Sched.Deadlock (fun () ->
      ignore (Sched.run sched : float))

let test_ready_at_delays () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:1 ~placement:(fun w -> w) in
  let seen = ref 0.0 in
  ignore
    (Sched.spawn sched ~at:5_000.0 (fun ctx -> seen := Sched.Ctx.now ctx));
  ignore (Sched.run sched : float);
  Alcotest.(check bool) "not before ready time" true (!seen >= 5_000.0)

let test_os_threads_cost_more () =
  let run_with task_model =
    let m = machine () in
    let sched = Sched.create ?task_model m ~n_workers:4 ~placement:(fun w -> w) in
    for _ = 1 to 64 do
      ignore (Sched.spawn sched (fun ctx -> Sched.Ctx.work ctx 100.0))
    done;
    Sched.run sched
  in
  let coroutines = run_with None in
  let os_threads =
    run_with (Some (Sched.Os_threads { spawn_ns = 20_000.0; switch_ns = 2_000.0 }))
  in
  Alcotest.(check bool) "kernel threads slower" true (os_threads > 3.0 *. coroutines)

(* no victims: nothing moves a task off the worker it was spawned on *)
let no_steal = { Sched.no_hooks with Sched.steal_order = (fun _ ~thief:_ -> [||]) }

(* Two workers, two tasks each, every quantum a 30 ns switch plus the
   task's work.  Worker 0 finishes A at 130 and C at 360, worker 1 B at
   330 and D at 760; the least-advanced worker runs first, so the
   finishes come A, B, C, D with 3, 2, 1, 0 tasks left live, clamped to
   the 2 workers: 2 for 200 ns, 2 for 30 ns, 1 for 400 ns. *)
let test_concurrency_samples () =
  let m = machine () in
  let sched = Sched.create ~hooks:no_steal m ~n_workers:2 ~placement:(fun w -> w) in
  List.iter
    (fun (worker, ns) ->
      ignore (Sched.spawn sched ~worker (fun ctx -> Sched.Ctx.work ctx ns) : Sched.task))
    [ (0, 100.0); (1, 300.0); (0, 200.0); (1, 400.0) ];
  Alcotest.(check (pair (float 0.0) (float 0.0))) "no finish, no concurrency" (0.0, 0.0)
    (Sched.concurrency sched);
  Alcotest.(check (float 0.0)) "makespan" 760.0 (Sched.run sched);
  let total = 630.0 and acc = (2.0 *. 230.0) +. 400.0 and acc2 = (4.0 *. 230.0) +. 400.0 in
  let mean = acc /. total in
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "time-weighted mean and variance"
    (mean, (acc2 /. total) -. (mean *. mean))
    (Sched.concurrency sched)

(* The statistic fig12 computed from a (time, live count) sample per
   finish, kept here as the reference for the running sums *)
let fold_samples ~workers samples =
  let n = Array.length samples in
  if n < 2 then (0.0, 0.0)
  else begin
    let total_time = ref 0.0 and acc = ref 0.0 and acc2 = ref 0.0 in
    for i = 0 to n - 2 do
      let t0, live = samples.(i) in
      let t1, _ = samples.(i + 1) in
      let dt = Float.max 0.0 (t1 -. t0) in
      let v = float_of_int (min live workers) in
      total_time := !total_time +. dt;
      acc := !acc +. (v *. dt);
      acc2 := !acc2 +. (v *. v *. dt)
    done;
    if !total_time <= 0.0 then (0.0, 0.0)
    else begin
      let mean = !acc /. !total_time in
      (mean, (!acc2 /. !total_time) -. (mean *. mean))
    end
  end

(* Random task trees (work, yields, children, awaits, delayed starts) on
   2-6 workers with stealing on.  Each body logs the finish sample the
   scheduler takes as it returns: its worker's clock, which the quantum
   ends at on this homogeneous machine, and the tasks still live.  The
   running sums must equal the fold over that log bit for bit. *)
let test_concurrency_matches_sample_fold () =
  let bits (a, b) = (Int64.bits_of_float a, Int64.bits_of_float b) in
  for seed = 1 to 40 do
    let rng = Rng.create seed in
    let workers = 2 + Rng.int rng 5 in
    let sched = Sched.create (machine ()) ~n_workers:workers ~placement:(fun w -> w) in
    let live = ref 0 and log = ref [] in
    let rec body depth ctx =
      for _ = 0 to Rng.int rng 3 do
        Sched.Ctx.work ctx (float_of_int (1 + Rng.int rng 500));
        if Rng.bool rng then Sched.Ctx.yield ctx
      done;
      if depth < 3 then
        for _ = 1 to Rng.int rng 3 do
          incr live;
          let child = Sched.Ctx.spawn ctx (body (depth + 1)) in
          if Rng.int rng 4 = 0 then Sched.Ctx.await ctx child
        done;
      decr live;
      log := (Sched.Ctx.now ctx, !live) :: !log
    in
    for _ = 1 to 1 + Rng.int rng 12 do
      incr live;
      ignore
        (Sched.spawn sched ~at:(float_of_int (Rng.int rng 2000)) (body 0) : Sched.task)
    done;
    ignore (Sched.run sched : float);
    let samples = Array.of_list (List.rev !log) in
    let expected = fold_samples ~workers samples and got = Sched.concurrency sched in
    if bits expected <> bits got then
      Alcotest.failf "seed %d: %d finishes, fold (%h, %h), sums (%h, %h)" seed
        (Array.length samples) (fst expected) (snd expected) (fst got) (snd got)
  done

let test_worker_local_spawn () =
  let m = machine () in
  let sched = Sched.create ~hooks:no_steal m ~n_workers:2 ~placement:(fun w -> w) in
  let child_worker = ref (-1) in
  ignore
    (Sched.spawn sched ~worker:1 (fun ctx ->
         let child = Sched.Ctx.spawn ctx (fun ctx' -> child_worker := Sched.Ctx.worker_id ctx') in
         Sched.Ctx.await ctx child));
  ignore (Sched.run sched : float);
  Alcotest.(check int) "child inherits spawner's worker" 1 !child_worker

let test_charge () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:1 ~placement:(fun w -> w) in
  Sched.charge sched ~worker:0 123.0;
  Alcotest.(check (float 0.001)) "charged" 123.0 (Sched.worker_clock sched 0)

let test_quantum_hook_runs () =
  let m = machine () in
  let count = ref 0 in
  let hooks =
    { Sched.no_hooks with Sched.on_quantum_end = (fun _ _ -> incr count) }
  in
  let sched = Sched.create ~hooks m ~n_workers:1 ~placement:(fun w -> w) in
  ignore
    (Sched.spawn sched (fun ctx ->
         Sched.Ctx.yield ctx;
         Sched.Ctx.yield ctx));
  ignore (Sched.run sched : float);
  Alcotest.(check int) "hook per quantum" 3 !count

let test_sync_clocks () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:3 ~placement:(fun w -> w) in
  Sched.charge sched ~worker:1 5_000.0;
  Sched.sync_clocks sched;
  for w = 0 to 2 do
    Alcotest.(check (float 0.001)) "aligned" 5_000.0 (Sched.worker_clock sched w)
  done

(* Regression: Ctx.range used to count accesses per element instead of per
   line touched, so the quantum budget and Machine.accesses disagreed for
   any region whose elements are smaller than a cache line. *)
let test_range_accounting_matches_machine () =
  let m = machine () in
  let region = Machine.alloc m ~elt_bytes:8 ~count:1000 () in
  let sched = Sched.create m ~n_workers:1 ~placement:(fun w -> w) in
  let quantum = ref 0 and delta = ref 0 in
  ignore
    (Sched.spawn sched (fun ctx ->
         let before = Machine.accesses m in
         Sched.Ctx.read_range ctx region ~lo:3 ~hi:997;
         quantum := Sched.Ctx.quantum_accesses ctx;
         delta := Machine.accesses m - before));
  ignore (Sched.run sched : float);
  (* independently count the distinct lines the range spans *)
  let line_bytes = (Machine.topology m).Topology.line_bytes in
  let lines = Hashtbl.create 64 in
  for i = 3 to 996 do
    Hashtbl.replace lines (Simmem.addr region i / line_bytes) ()
  done;
  Alcotest.(check int) "task charged per line" (Hashtbl.length lines) !quantum;
  Alcotest.(check int) "machine counter agrees" !delta !quantum

(* Regression: a steal sweep that refuses every queued task (all beyond the
   thief's horizon) used to rotate the victim's run order as a side effect. *)
let test_refused_steal_preserves_order () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:2 ~placement:(fun w -> w) in
  Sched.charge sched ~worker:0 1_000_000.0;
  for _ = 1 to 5 do
    ignore (Sched.spawn sched ~worker:0 ~at:1_000_000.0 (fun _ -> ()) : Sched.task)
  done;
  (* task ids count up per spawn, so spawn order is ascending order *)
  let ids = Sched.ready_queue_ids sched 0 in
  Alcotest.(check (list int)) "all queued ready, in spawn order"
    (List.sort_uniq compare ids) ids;
  Alcotest.(check int) "five queued" 5 (List.length ids);
  (* the thief's clock is 0, so every task sits beyond its steal horizon *)
  Alcotest.(check int) "sweep refuses all" (-1) (Sched.steal_once sched ~thief:1 ~victim:0);
  Alcotest.(check (list int)) "victim order untouched" ids (Sched.ready_queue_ids sched 0);
  (* advance the thief: the oldest task is now inside the horizon *)
  Sched.charge sched ~worker:1 1_000_000.0;
  Alcotest.(check int) "steals oldest first" (List.hd ids)
    (Sched.steal_once sched ~thief:1 ~victim:0);
  Alcotest.(check (list int)) "remainder keeps order" (List.tl ids)
    (Sched.ready_queue_ids sched 0)

(* Regression: sync_clocks aligned the worker clocks but left the event
   heap holding the old keys, so the next pick could dequeue a worker far
   out of clock order. *)
let test_sync_clocks_refreshes_heap () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:3 ~placement:(fun w -> w) in
  Sched.charge sched ~worker:1 5_000.0;
  Sched.sync_clocks sched;
  let snap = Sched.heap_snapshot sched in
  Alcotest.(check int) "one heap entry per worker" 3 (Array.length snap);
  Array.iter
    (fun (key, wid) ->
      Alcotest.(check (float 0.001)) "heap key tracks synced clock"
        (Sched.worker_clock sched wid) key;
      Alcotest.(check (float 0.001)) "synced to the max clock" 5_000.0 key)
    snap

(* The per-access path (Ctx.read -> Machine.access_clk -> cache, directory,
   page map, channel charge) must stay allocation-free: a boxed float pair
   per access already costs 32 bytes.  The budget leaves slack for quantum
   switches and amortised metadata growth. *)
let test_access_path_allocation_budget () =
  let m = machine () in
  let region = Machine.alloc m ~elt_bytes:8 ~count:4096 () in
  let sched = Sched.create m ~n_workers:1 ~placement:(fun w -> w) in
  let n = 200_000 in
  ignore
    (Sched.spawn sched (fun ctx ->
         for i = 0 to n - 1 do
           Sched.Ctx.read ctx region (i land 4095);
           Sched.Ctx.maybe_yield ctx
         done));
  let before = Gc.allocated_bytes () in
  ignore (Sched.run sched : float);
  let per_access = (Gc.allocated_bytes () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f bytes/access within budget" per_access)
    true
    (per_access < 16.0)

let suite =
  [
    Alcotest.test_case "migrate" `Quick test_migrate;
    Alcotest.test_case "sync_clocks" `Quick test_sync_clocks;
    Alcotest.test_case "placement collision rejected" `Quick test_placement_collision_rejected;
    Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "ready_at delays" `Quick test_ready_at_delays;
    Alcotest.test_case "os threads cost more" `Quick test_os_threads_cost_more;
    Alcotest.test_case "concurrency samples" `Quick test_concurrency_samples;
    Alcotest.test_case "concurrency sums match the sample fold" `Quick
      test_concurrency_matches_sample_fold;
    Alcotest.test_case "worker-local spawn" `Quick test_worker_local_spawn;
    Alcotest.test_case "external charge" `Quick test_charge;
    Alcotest.test_case "quantum hook" `Quick test_quantum_hook_runs;
    Alcotest.test_case "range accounting matches machine" `Quick
      test_range_accounting_matches_machine;
    Alcotest.test_case "refused steal preserves order" `Quick
      test_refused_steal_preserves_order;
    Alcotest.test_case "sync_clocks refreshes heap" `Quick
      test_sync_clocks_refreshes_heap;
    Alcotest.test_case "access path allocation budget" `Quick
      test_access_path_allocation_budget;
  ]
