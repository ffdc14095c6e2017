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

let test_create_app () =
  let got = ref 0 in
  let c = Coroutine.create_app (fun x -> got := x) 42 in
  Alcotest.(check int) "nothing runs before the first resume" 0 !got;
  Alcotest.(check bool) "finished" true (Coroutine.resume c = Coroutine.Finished);
  Alcotest.(check int) "applied to its argument" 42 !got

(* a coroutine whose fiber was started catches an exception from one it
   resumed; its own yield must still park it, not the one that raised *)
let test_exception_restores_running () =
  let steps = ref [] in
  let inner = Coroutine.create (fun () -> failwith "inner") in
  let outer =
    Coroutine.create (fun () ->
        (try ignore (Coroutine.resume inner : Coroutine.outcome)
         with Failure msg -> steps := msg :: !steps);
        Coroutine.yield ();
        steps := "outer" :: !steps)
  in
  Alcotest.(check bool) "outer yields" true (Coroutine.resume outer = Coroutine.Yielded);
  Alcotest.(check (list string)) "caught the inner failure" [ "inner" ] !steps;
  Alcotest.(check bool) "outer resumes to completion" true
    (Coroutine.resume outer = Coroutine.Finished);
  Alcotest.(check (list string)) "and continued where it yielded" [ "outer"; "inner" ] !steps;
  Alcotest.check_raises "inner stays finished"
    (Invalid_argument "Coroutine.resume: already finished") (fun () ->
      ignore (Coroutine.resume inner))

type _ Effect.t += Ask : int Effect.t

(* an effect the coroutine handler does not know is passed on to the
   enclosing handler, and the coroutine keeps working after it returns *)
let test_foreign_effect () =
  let got = ref 0 in
  let c =
    Coroutine.create (fun () ->
        got := Effect.perform Ask + 1;
        Coroutine.yield ();
        got := !got * 2)
  in
  let answer =
    {
      Effect.Deep.effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Ask -> Some (fun (k : (a, _) Effect.Deep.continuation) -> Effect.Deep.continue k 41)
          | _ -> None);
    }
  in
  Alcotest.(check bool) "yields after the answer" true
    (Effect.Deep.try_with Coroutine.resume c answer = Coroutine.Yielded);
  Alcotest.(check int) "the outer handler answered" 42 !got;
  Alcotest.(check bool) "finishes outside the handler" true
    (Coroutine.resume c = Coroutine.Finished);
  Alcotest.(check int) "continued after the yield" 84 !got;
  Alcotest.check_raises "unanswered, it is unhandled" (Effect.Unhandled Ask) (fun () ->
      ignore (Coroutine.resume (Coroutine.create (fun () -> ignore (Effect.perform Ask)))))

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
    Alcotest.test_case "create_app passes its argument" `Quick test_create_app;
    Alcotest.test_case "exception restores the running coroutine" `Quick
      test_exception_restores_running;
    Alcotest.test_case "foreign effect reaches an outer handler" `Quick test_foreign_effect;
  ]
