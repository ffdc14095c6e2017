open Chipsim
module Sched = Engine.Sched

let sched_of ~workers =
  let m = Machine.create (Presets.amd_milan ()) in
  Sched.create m ~n_workers:workers ~placement:(fun w -> w)

let test_block_distribution () =
  (* adjacent chunks must land on the same worker (cache affinity) *)
  let sched = sched_of ~workers:4 in
  let owners = Hashtbl.create 64 in
  ignore
    (Sched.spawn sched (fun ctx ->
         Engine.Par.parallel_for ctx ~lo:0 ~hi:1600 ~grain:100 (fun ctx' lo _hi ->
             Hashtbl.replace owners lo (Sched.Ctx.worker_id ctx'))));
  ignore (Sched.run sched : float);
  (* 16 chunks over 4 workers: chunk k on worker k/4 *)
  for k = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "chunk %d" k)
      (k / 4)
      (Hashtbl.find owners (k * 100))
  done

let test_parallel_for_empty_range () =
  let sched = sched_of ~workers:2 in
  let ran = ref false in
  ignore
    (Sched.spawn sched (fun ctx ->
         Engine.Par.parallel_for ctx ~lo:5 ~hi:5 (fun _ _ _ -> ran := true)));
  ignore (Sched.run sched : float);
  Alcotest.(check bool) "no chunks" false !ran

let test_parallel_for_bad_grain () =
  let sched = sched_of ~workers:2 in
  let failed = ref false in
  ignore
    (Sched.spawn sched (fun ctx ->
         try Engine.Par.parallel_for ctx ~lo:0 ~hi:10 ~grain:0 (fun _ _ _ -> ())
         with Invalid_argument _ -> failed := true));
  ignore (Sched.run sched : float);
  Alcotest.(check bool) "rejects grain 0" true !failed

let test_all_do_and_call () =
  let sched = sched_of ~workers:3 in
  let seen = Array.make 3 (-1) in
  ignore
    (Sched.spawn sched (fun ctx ->
         Engine.Par.all_do ctx (fun ctx' w -> seen.(w) <- Sched.Ctx.worker_id ctx')));
  ignore (Sched.run sched : float);
  Alcotest.(check (array int)) "each on its own worker" [| 0; 1; 2 |] seen

let suite =
  [
    Alcotest.test_case "block distribution" `Quick test_block_distribution;
    Alcotest.test_case "empty range" `Quick test_parallel_for_empty_range;
    Alcotest.test_case "bad grain rejected" `Quick test_parallel_for_bad_grain;
    Alcotest.test_case "all_do" `Quick test_all_do_and_call;
  ]
