open Engine

let test_runs_to_completion () =
  let hit = ref false in
  let c = Coroutine.create (fun () -> hit := true) in
  Alcotest.(check bool) "finished" true (Coroutine.resume c = Coroutine.Finished);
  Alcotest.(check bool) "side effect" true !hit;
  Alcotest.check_raises "is_done"
    (Invalid_argument "Coroutine.resume: already finished") (fun () ->
      ignore (Coroutine.resume c))

let test_yield_resume () =
  let steps = ref [] in
  let c =
    Coroutine.create (fun () ->
        steps := 1 :: !steps;
        Coroutine.yield ();
        steps := 2 :: !steps;
        Coroutine.yield ();
        steps := 3 :: !steps)
  in
  Alcotest.(check bool) "yield 1" true (Coroutine.resume c = Coroutine.Yielded);
  Alcotest.(check (list int)) "after 1" [ 1 ] !steps;
  Alcotest.(check bool) "yield 2" true (Coroutine.resume c = Coroutine.Yielded);
  Alcotest.(check bool) "finish" true (Coroutine.resume c = Coroutine.Finished);
  Alcotest.(check (list int)) "all steps" [ 3; 2; 1 ] !steps

let test_suspend_park_resume () =
  let steps = ref [] in
  let c =
    Coroutine.create (fun () ->
        steps := 1 :: !steps;
        Coroutine.suspend ();
        steps := 2 :: !steps)
  in
  Alcotest.(check bool) "suspended" true (Coroutine.resume c = Coroutine.Suspended);
  Alcotest.(check (list int)) "parked after step 1" [ 1 ] !steps;
  Alcotest.(check bool) "resumes to completion" true (Coroutine.resume c = Coroutine.Finished);
  Alcotest.(check (list int)) "continued where it parked" [ 2; 1 ] !steps

let test_double_resume_rejected () =
  let c = Coroutine.create (fun () -> ()) in
  ignore (Coroutine.resume c);
  Alcotest.check_raises "resume finished"
    (Invalid_argument "Coroutine.resume: already finished") (fun () ->
      ignore (Coroutine.resume c))

let test_exception_propagates () =
  let c = Coroutine.create (fun () -> failwith "boom") in
  (try
     ignore (Coroutine.resume c);
     Alcotest.fail "no exception"
   with Failure msg -> Alcotest.(check string) "message" "boom" msg);
  Alcotest.check_raises "done after raise"
    (Invalid_argument "Coroutine.resume: already finished") (fun () ->
      ignore (Coroutine.resume c))

let test_many_yields () =
  (* individual stacks: two coroutines interleave without corrupting state *)
  let log = Buffer.create 64 in
  let mk tag n =
    Coroutine.create (fun () ->
        for i = 0 to n - 1 do
          Buffer.add_string log (Printf.sprintf "%s%d " tag i);
          Coroutine.yield ()
        done)
  in
  let a = mk "a" 3 and b = mk "b" 3 in
  let a_done = ref false and b_done = ref false in
  let step c finished =
    if not !finished then finished := Coroutine.resume c = Coroutine.Finished
  in
  let rec pump () =
    step a a_done;
    step b b_done;
    if not (!a_done && !b_done) then pump ()
  in
  pump ();
  Alcotest.(check string) "interleaved" "a0 b0 a1 b1 a2 b2 " (Buffer.contents log)

let suite =
  [
    Alcotest.test_case "runs to completion" `Quick test_runs_to_completion;
    Alcotest.test_case "yield/resume" `Quick test_yield_resume;
    Alcotest.test_case "suspend parks and resumes" `Quick test_suspend_park_resume;
    Alcotest.test_case "double resume rejected" `Quick test_double_resume_rejected;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "interleaving preserves state" `Quick test_many_yields;
  ]
