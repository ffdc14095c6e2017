open Chipsim
open Engine

let machine () =
  match Topology.of_file "../examples/topologies/tiny.topo" with
  | Ok topo -> Machine.create topo
  | Error m -> Alcotest.fail m

let test_single_task () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:2 ~placement:(fun w -> w) in
  let hits = ref 0 in
  let _task = Sched.spawn sched (fun _ctx -> incr hits) in
  let makespan = Sched.run sched in
  Alcotest.(check int) "task ran" 1 !hits;
  Alcotest.(check bool) "time advanced" true (makespan > 0.0)

let test_yield_interleaves () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:1 ~placement:(fun w -> w) in
  let log = ref [] in
  let mk tag =
    Sched.spawn sched ~worker:0 (fun ctx ->
        for i = 0 to 2 do
          log := (tag, i) :: !log;
          Sched.Ctx.yield ctx
        done)
  in
  let _a = mk "a" and _b = mk "b" in
  ignore (Sched.run sched : float);
  let order = List.rev !log in
  Alcotest.(check int) "six steps" 6 (List.length order);
  (* FIFO re-queueing interleaves the two tasks *)
  match order with
  | ("a", 0) :: ("b", 0) :: ("a", 1) :: _ -> ()
  | _ -> Alcotest.fail "tasks did not interleave"

let test_memory_charges_time () =
  let m = machine () in
  let region = Machine.alloc m ~elt_bytes:8 ~count:1024 () in
  let sched = Sched.create m ~n_workers:1 ~placement:(fun w -> w) in
  let _task =
    Sched.spawn sched (fun ctx ->
        for i = 0 to 1023 do
          Sched.Ctx.read ctx region i
        done)
  in
  let makespan = Sched.run sched in
  (* 1024 * 8B = 128 lines; every first touch costs at least DRAM latency *)
  Alcotest.(check bool) "dram charged" true (makespan > 128.0 *. 100.0);
  Alcotest.(check bool) "pmu saw dram" true (Pmu.total (Machine.pmu m) Pmu.Dram_local > 0)

let test_barrier_coordinates () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:4 ~placement:(fun w -> w) in
  let b = Barrier.create 4 in
  let after = ref [] in
  for w = 0 to 3 do
    ignore
      (Sched.spawn sched ~worker:w (fun ctx ->
           Sched.Ctx.work ctx (float_of_int (100 * (w + 1)));
           Barrier.wait ctx b;
           after := Sched.Ctx.now ctx :: !after))
  done;
  ignore (Sched.run sched : float);
  Alcotest.(check int) "all passed" 4 (List.length !after);
  let min_after = List.fold_left Float.min infinity !after in
  Alcotest.(check bool) "nobody before the slowest arrival" true (min_after >= 400.0)

let test_steal_balances () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:4 ~placement:(fun w -> w) in
  (* all tasks spawned on worker 0; stealing should spread them *)
  for _ = 1 to 32 do
    ignore
      (Sched.spawn sched ~worker:0 (fun ctx -> Sched.Ctx.work ctx 10_000.0))
  done;
  ignore (Sched.run sched : float);
  Alcotest.(check bool) "steals happened" true
    (Pmu.total (Machine.pmu m) Pmu.Task_stolen > 0)

let test_await () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:2 ~placement:(fun w -> w) in
  let order = ref [] in
  let _parent =
    Sched.spawn sched ~worker:0 (fun ctx ->
        let child =
          Sched.Ctx.spawn ctx ~worker:1 (fun ctx' ->
              Sched.Ctx.work ctx' 5_000.0;
              order := "child" :: !order)
        in
        Sched.Ctx.await ctx child;
        order := "parent" :: !order)
  in
  ignore (Sched.run sched : float);
  Alcotest.(check (list string)) "child before parent" [ "parent"; "child" ] !order

let suite =
  [
    Alcotest.test_case "single task" `Quick test_single_task;
    Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
    Alcotest.test_case "memory charges time" `Quick test_memory_charges_time;
    Alcotest.test_case "barrier coordinates" `Quick test_barrier_coordinates;
    Alcotest.test_case "steal balances" `Quick test_steal_balances;
    Alcotest.test_case "await" `Quick test_await;
  ]
