(* Allocation budgets for the per-draw, per-row, per-quantum and per-task
   paths.  Words are read with [Gc.minor_words], which is exact at any
   point; [Gc.quick_stat]'s counters advance only at minor collections on
   OCaml 5.1 and cannot resolve a few words per operation. *)

open Engine

(* words [f] allocates, minus what an empty measurement costs (the boxed
   float [Gc.minor_words] itself returns) *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let e0 = Gc.minor_words () in
  let e1 = Gc.minor_words () in
  (w1 -. w0) -. (e1 -. e0)

let draws = 10_000

(* a boxed float: one header word plus the 8-byte payload *)
let boxed_float = float_of_int (1 + (64 / Sys.word_size))

let test_rng_draws () =
  let r = Rng.create 7 in
  let acc = ref 0 in
  let w = words (fun () -> for _ = 1 to draws do acc := !acc + Rng.int r 1000 done) in
  Alcotest.(check (float 0.0)) "Rng.int words" 0.0 w;
  let w = words (fun () -> for _ = 1 to draws do if Rng.bool r then incr acc done) in
  Alcotest.(check (float 0.0)) "Rng.bool words" 0.0 w;
  let a = Array.init 64 Fun.id in
  let w = words (fun () -> for _ = 1 to 100 do Rng.shuffle r a done) in
  Alcotest.(check (float 0.0)) "Rng.shuffle words" 0.0 w;
  (* a float crosses the module boundary boxed: dune's dev profile builds
     with -opaque, so no caller inlines [Rng.float]; the draw itself
     allocates nothing beyond that box *)
  let sum = [| 0.0 |] in
  let w =
    words (fun () -> for _ = 1 to draws do sum.(0) <- sum.(0) +. Rng.float r 1.0 done)
  in
  Alcotest.(check (float 0.0)) "Rng.float words" (float_of_int draws *. boxed_float) w;
  let w = words (fun () -> for _ = 1 to draws do acc := !acc + Rng.bits53 r done) in
  Alcotest.(check (float 0.0)) "Rng.bits53 words" 0.0 w

let env () =
  (Harness.Systems.make Harness.Systems.Charm Harness.Systems.Amd_milan ~n_workers:8 ())
    .Harness.Systems.env

let test_hash_agg_row () =
  let e = env () in
  let alloc ~elt_bytes ~count = e.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
  let w = ref nan in
  ignore
    (Workloads.Exec_env.run e (fun ctx ->
         let agg = Olap.Exec.Hash_agg.create ~alloc ~expected:8 ~width:2 in
         (* the first row builds the group *)
         ignore (Olap.Exec.Hash_agg.row ctx agg ~key:3 : float array);
         w :=
           words (fun () ->
               for i = 1 to draws do
                 let a = Olap.Exec.Hash_agg.row ctx agg ~key:3 in
                 a.(0) <- a.(0) +. 1.0;
                 a.(1) <- a.(1) +. float_of_int i
               done))
      : float);
  Alcotest.(check (float 0.0)) "Hash_agg.row words on an existing group" 0.0 !w

(* a probe allocates nothing; an insert under an existing key, only the
   cons cell that stores its payload *)
let test_hash_join () =
  let e = env () in
  let alloc ~elt_bytes ~count = e.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
  let probe = ref nan and insert = ref nan in
  ignore
    (Workloads.Exec_env.run e (fun ctx ->
         let hj = Olap.Exec.Hash_join.create ~alloc ~expected:8 in
         Olap.Exec.Hash_join.insert ctx hj ~key:3 ~payload:0;
         let n = ref 0 in
         probe :=
           words (fun () ->
               for _ = 1 to draws do
                 n := !n + List.length (Olap.Exec.Hash_join.probe ctx hj ~key:3);
                 n := !n + List.length (Olap.Exec.Hash_join.probe ctx hj ~key:4)
               done);
         insert :=
           words (fun () ->
               for i = 1 to draws do
                 Olap.Exec.Hash_join.insert ctx hj ~key:3 ~payload:i
               done))
      : float);
  Alcotest.(check (float 0.0)) "Hash_join.probe words" 0.0 !probe;
  Alcotest.(check (float 0.0)) "Hash_join.insert words" (3.0 *. float_of_int draws) !insert

(* Ceilings: the value measured on OCaml 5.1.1 plus slack for the other
   CI compiler.  Measured there: 12.5 words per quantum (48.9 before the
   allocation pass) and 49.8 words per parallel_for task (101.1). *)
let max_words_per_quantum = 16.0
let max_words_per_task = 60.0

(* two tasks per worker of a CHARM instance, each yielding [yields]
   times: the scheduler, the coroutine switch and CHARM's quantum-end
   hook, spawns included *)
let test_quantum_words () =
  let yields = 2000 in
  let e = env () in
  let region = e.Workloads.Exec_env.alloc_shared ~elt_bytes:8 ~count:4096 in
  let sched = e.Workloads.Exec_env.sched in
  let tasks = 2 * Sched.n_workers sched in
  let w =
    words (fun () ->
        for k = 0 to tasks - 1 do
          ignore
            (Sched.spawn sched ~worker:(k mod Sched.n_workers sched) (fun ctx ->
                 for i = 1 to yields do
                   Sched.Ctx.read ctx region (((k * yields) + i) land 4095);
                   Sched.Ctx.yield ctx
                 done)
              : Sched.task)
        done;
        ignore (Sched.run sched : float))
  in
  let per_quantum = w /. float_of_int (tasks * (yields + 1)) in
  if per_quantum > max_words_per_quantum then
    Alcotest.failf "%.2f words per quantum, ceiling %.0f" per_quantum max_words_per_quantum

let test_parallel_for_words () =
  let chunks = 4096 in
  let e = env () in
  let w = ref nan in
  ignore
    (Workloads.Exec_env.run e (fun ctx ->
         w :=
           words (fun () ->
               Par.parallel_for ctx ~lo:0 ~hi:chunks ~grain:1 (fun ctx' _ _ ->
                   Sched.Ctx.work ctx' 10.0)))
      : float);
  let per_task = !w /. float_of_int chunks in
  if per_task > max_words_per_task then
    Alcotest.failf "%.2f words per parallel_for task, ceiling %.0f" per_task max_words_per_task

let suite =
  [
    Alcotest.test_case "rng draws" `Quick test_rng_draws;
    Alcotest.test_case "hash agg row" `Quick test_hash_agg_row;
    Alcotest.test_case "hash join" `Quick test_hash_join;
    Alcotest.test_case "words per quantum" `Quick test_quantum_words;
    Alcotest.test_case "words per parallel_for task" `Quick test_parallel_for_words;
  ]
