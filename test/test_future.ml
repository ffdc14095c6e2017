open Chipsim
open Engine

let sched_of ~workers =
  let m = Machine.create (Presets.amd_milan ()) in
  Sched.create m ~n_workers:workers ~placement:(fun w -> w)

(* the producer runs on another worker and the consumer suspends until
   its value arrives; a second await reads the fulfilled value at once *)
let test_spawn_and_await () =
  let sched = sched_of ~workers:2 in
  let got = ref [] in
  ignore
    (Sched.spawn sched ~worker:0 (fun ctx ->
         let f = Future.spawn_at ctx ~worker:1 (fun ctx -> Sched.Ctx.work ctx 100.0; 42) in
         let first = Future.await ctx f in
         got := [ first; Future.await ctx f ]));
  ignore (Sched.run sched : float);
  Alcotest.(check (list int)) "value, then the same value again" [ 42; 42 ] !got

let test_await_after_fulfilled () =
  let sched = sched_of ~workers:1 in
  let f = Future.create () in
  let order = ref [] in
  ignore
    (Sched.spawn sched (fun ctx ->
         Future.fulfill ctx f "hello";
         order := Future.await ctx f :: !order));
  ignore (Sched.run sched : float);
  Alcotest.(check (list string)) "no suspension needed" [ "hello" ] !order

let test_multiple_waiters () =
  let sched = sched_of ~workers:4 in
  let f = Future.create () in
  let got = Array.make 3 0 in
  for w = 0 to 2 do
    ignore
      (Sched.spawn sched ~worker:w (fun ctx -> got.(w) <- Future.await ctx f))
  done;
  ignore
    (Sched.spawn sched ~worker:3 (fun ctx ->
         Sched.Ctx.work ctx 10_000.0;
         Future.fulfill ctx f 7));
  ignore (Sched.run sched : float);
  Alcotest.(check (array int)) "all woken with the value" [| 7; 7; 7 |] got

let test_double_fulfill_rejected () =
  let sched = sched_of ~workers:1 in
  let f = Future.create () in
  let raised = ref false in
  ignore
    (Sched.spawn sched (fun ctx ->
         Future.fulfill ctx f 1;
         try Future.fulfill ctx f 2 with Invalid_argument _ -> raised := true));
  ignore (Sched.run sched : float);
  Alcotest.(check bool) "second fulfill rejected" true !raised

let test_spawn_at () =
  let sched = sched_of ~workers:2 in
  let result = ref 0.0 in
  ignore
    (Sched.spawn sched (fun ctx ->
         let f = Future.spawn_at ctx ~worker:1 (fun ctx' -> Sched.Ctx.now ctx') in
         result := Future.await ctx f));
  ignore (Sched.run sched : float);
  Alcotest.(check bool) "child ran and returned" true (!result >= 0.0)

let suite =
  [
    Alcotest.test_case "spawn and await" `Quick test_spawn_and_await;
    Alcotest.test_case "await after fulfilled" `Quick test_await_after_fulfilled;
    Alcotest.test_case "multiple waiters" `Quick test_multiple_waiters;
    Alcotest.test_case "double fulfill rejected" `Quick test_double_fulfill_rejected;
    Alcotest.test_case "spawn_at" `Quick test_spawn_at;
  ]
