open Engine

let test_runs_to_completion () =
  let hit = ref false in
  let c = Coroutine.create (fun () -> hit := true) in
  Alcotest.(check bool) "finished" true (Coroutine.resume c = Coroutine.Finished);
  Alcotest.(check bool) "side effect" true !hit;
  Alcotest.(check bool) "is_done" true (Coroutine.is_done c)

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
  Alcotest.(check bool) "parked" true (Coroutine.is_parked c);
  Alcotest.(check bool) "not done" false (Coroutine.is_done c);
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
  Alcotest.(check bool) "done after raise" true (Coroutine.is_done c)

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
  let rec pump () =
    let more = ref false in
    if not (Coroutine.is_done a) then
      if Coroutine.resume a <> Coroutine.Finished then more := true;
    if not (Coroutine.is_done b) then
      if Coroutine.resume b <> Coroutine.Finished then more := true;
    if !more then pump ()
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
