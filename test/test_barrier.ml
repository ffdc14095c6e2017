open Chipsim
open Engine

let machine () = Machine.create (Presets.amd_milan ())

let run_barrier ~cores =
  let m = machine () in
  let n = List.length cores in
  let placement =
    let arr = Array.of_list cores in
    fun w -> arr.(w)
  in
  let sched = Sched.create m ~n_workers:n ~placement in
  let b = Barrier.create n in
  let exits = ref [] in
  List.iteri
    (fun w _ ->
      ignore
        (Sched.spawn sched ~worker:w (fun ctx ->
             Sched.Ctx.work ctx (float_of_int (w * 100));
             Barrier.wait ctx b;
             exits := Sched.Ctx.now ctx :: !exits)))
    cores;
  ignore (Sched.run sched : float);
  !exits

let test_waits_for_all () =
  let exits = run_barrier ~cores:[ 0; 1; 2; 3 ] in
  Alcotest.(check int) "all exit" 4 (List.length exits);
  let min_exit = List.fold_left Float.min infinity exits in
  (* slowest arrival was worker 3 at t=300 *)
  Alcotest.(check bool) "nobody exits early" true (min_exit >= 300.0)

let test_spread_costs_more () =
  let packed = run_barrier ~cores:[ 0; 1; 2; 3 ] in
  let spread = run_barrier ~cores:[ 0; 16; 64; 80 ] in
  let max_l = List.fold_left Float.max 0.0 in
  Alcotest.(check bool) "cross-socket barrier slower" true
    (max_l spread > max_l packed)

let test_cyclic_reuse () =
  let m = machine () in
  let sched = Sched.create m ~n_workers:2 ~placement:(fun w -> w) in
  let b = Barrier.create 2 in
  let rounds = ref [] in
  for w = 0 to 1 do
    ignore
      (Sched.spawn sched ~worker:w (fun ctx ->
           for round = 1 to 3 do
             Sched.Ctx.work ctx 10.0;
             Barrier.wait ctx b;
             if w = 0 then rounds := round :: !rounds
           done))
  done;
  ignore (Sched.run sched : float);
  (* a barrier that did not reset would release round 2 early or never *)
  Alcotest.(check (list int)) "three rounds" [ 3; 2; 1 ] !rounds

let test_create_invalid () =
  Alcotest.check_raises "zero parties"
    (Invalid_argument "Barrier.create: parties must be positive") (fun () ->
      ignore (Barrier.create 0))

let suite =
  [
    Alcotest.test_case "waits for all" `Quick test_waits_for_all;
    Alcotest.test_case "spread costs more" `Quick test_spread_costs_more;
    Alcotest.test_case "cyclic reuse" `Quick test_cyclic_reuse;
    Alcotest.test_case "invalid create" `Quick test_create_invalid;
  ]
