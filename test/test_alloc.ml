(* Allocation budgets for the per-draw, per-row, per-quantum and per-task
   paths.  Words are read with [Gc.minor_words], which is exact at any
   point; [Gc.quick_stat]'s counters advance only at minor collections on
   OCaml 5.1 and cannot resolve a few words per operation. *)

open Chipsim
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

(* words [f] allocates on both heaps: a block of more than 256 words
   goes straight to the major heap, which [Gc.minor_words] does not see.
   The major part is [Gc.counters]' major words less its promoted ones
   (on OCaml 5.1 its minor count undercounts the live minor heap, so the
   exact [words] is used for that part). *)
let all_words f =
  let major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let m0 = major () in
  let minor = words f in
  let m1 = major () in
  let e0 = major () in
  let e1 = major () in
  minor +. ((m1 -. m0) -. (e1 -. e0))

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
         let count _ = incr n in
         probe :=
           words (fun () ->
               for _ = 1 to draws do
                 Olap.Exec.Hash_join.probe_iter ctx hj ~key:3 count;
                 Olap.Exec.Hash_join.probe_iter ctx hj ~key:4 count
               done);
         insert :=
           words (fun () ->
               for i = 1 to draws do
                 Olap.Exec.Hash_join.insert ctx hj ~key:3 ~payload:i
               done))
      : float);
  Alcotest.(check (float 0.0)) "Hash_join.probe_iter words" 0.0 !probe;
  Alcotest.(check (float 0.0)) "Hash_join.insert words" (3.0 *. float_of_int draws) !insert

(* Ceilings: the value measured on OCaml 5.1.1 plus about a fifth for
   the other CI compiler.  Measured there: 4.4 words per quantum (8.3
   while CHARM's health monitor read a boxed clock and latency meter,
   10.4 while its policy tick boxed the worker's clock, 48.9 before the
   allocation pass), 32.9 words per parallel_for task (40.8 while a task
   carried a separate ctx record, a closure applying the body to it and
   its coroutine in an option; 101.1 before the allocation pass) and 21
   words per bare spawn (34 then, a round-robin pick closure included):
   the task record, its ready-time cell, the coroutine, its start state
   and the 5-word effect closure [Effect.Deep.match_with] builds per
   fiber.  The rest of a parallel_for task is its caller's: the chunk
   closure, the [Some worker] and the waiter cell its await conses. *)
let max_words_per_quantum = 10.0
let max_words_per_task = 39.0
let max_words_per_spawn = 25.0

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

(* [Sched.spawn] of an empty body, then the run that finishes it *)
let spawn_run sched n =
  for _ = 1 to n do
    ignore (Sched.spawn sched (fun _ -> ()) : Sched.task)
  done;
  ignore (Sched.run sched : float)

let spawn_sched () =
  Sched.create (Machine.create (Presets.amd_milan ())) ~n_workers:16 ~placement:Fun.id

let test_spawn_words () =
  let tasks = 4096 in
  let sched = spawn_sched () in
  (* warm: the run queues grow to hold the batch *)
  spawn_run sched tasks;
  let per_task = words (fun () -> spawn_run sched tasks) /. float_of_int tasks in
  if per_task > max_words_per_spawn then
    Alcotest.failf "%.2f words per spawned task, ceiling %.0f" per_task max_words_per_spawn

(* A finish keeps nothing that grows with the run: on a scheduler whose
   queues already hold 2N tasks, 2N more spawns and finishes cost twice
   N, on both heaps.  A per-finish sample array doubling as it filled
   broke this by tens of thousands of words; the 64 words of slack
   leave room for the other CI compiler's GC counters (exact on OCaml
   5.1.1). *)
let test_finishes_retain_nothing () =
  let n = 4096 in
  let sched = spawn_sched () in
  spawn_run sched (2 * n);
  let none = all_words (fun () -> spawn_run sched 0) in
  let twice = all_words (fun () -> spawn_run sched (2 * n)) in
  let once = all_words (fun () -> spawn_run sched n) in
  Alcotest.(check (float 64.0)) "2N finishes cost twice N" (2.0 *. (once -. none)) (twice -. none)

(* CHARM's Alg. 1 evaluation reads the worker's clock cell, and the
   profiler and controller write into state they own, so a tick that
   changes no spread allocates nothing.  Before: 61 words on amd, 96 on
   a heterogeneous topology (its chiplet order was re-sorted per tick). *)
let test_policy_tick_words () =
  let hetero =
    match Chipsim.Topology.of_file "../examples/topologies/tiny-hetero.topo" with
    | Ok topo -> Harness.Systems.Custom { name = "tiny-hetero"; topo }
    | Error m -> Alcotest.fail m
  in
  List.iter
    (fun (name, machine, n) ->
      let inst = Harness.Systems.make Harness.Systems.Charm machine ~n_workers:n () in
      let rt = Option.get inst.Harness.Systems.charm in
      let policy = Charm.Runtime.policy rt and sched = Charm.Runtime.sched rt in
      let ticks k =
        for i = 0 to k - 1 do
          Charm.Policy.force_tick policy sched ~worker:(i mod n)
        done
      in
      (* an idle gang first contracts to its smallest valid spread; a
         spread change calls the trace hook with a boxed clock *)
      ticks (16 * n);
      Alcotest.(check (float 0.0))
        (name ^ ": Policy.force_tick words")
        0.0
        (words (fun () -> ticks draws)))
    [ ("amd", Harness.Systems.Amd_milan, 32); ("tiny-hetero", hetero, 8) ]

(* CHARM's quantum-end hook, with and without a power cap: the power
   controller's tick, the profiler charge, the health monitor's
   observation and the policy tick.  On an idle worker (no health sample;
   its policy timer fires every 1250 calls and changes nothing) it
   allocates nothing: the monitor reads the clock and the latency meter
   from their cells, and the power controller the clock.  Before: 4
   words per call, a boxed clock and a boxed latency reading, and 2 more
   when capped, the clock boxed for [Power_cap.tick]. *)
let quantum_end_hook_words name inst =
  let n = 16 in
  let rt = Option.get inst.Harness.Systems.charm in
  let policy = Charm.Runtime.policy rt and sched = Charm.Runtime.sched rt in
  let hook = (Sched.hooks sched).Sched.on_quantum_end in
  (* warm: the idle gang contracts to its smallest spread, each worker's
     first observation rebases the monitor, and a cap takes its first
     sample *)
  for i = 0 to (16 * n) - 1 do
    Charm.Policy.force_tick policy sched ~worker:(i mod n)
  done;
  for w = 0 to n - 1 do
    hook sched w
  done;
  Alcotest.(check (float 0.0))
    (name ^ ": on_quantum_end words")
    0.0
    (words (fun () -> for _ = 1 to draws do hook sched 3 done))

let test_quantum_end_hook_words () =
  List.iter
    (fun (name, charm_config) ->
      quantum_end_hook_words name
        (Harness.Systems.make ~charm_config Harness.Systems.Charm Harness.Systems.Amd_milan
           ~n_workers:16 ()))
    [
      ("uncapped", Charm.Config.default);
      (* a cap far above the machine's draw, so the controller never
         actuates; between its samples the tick reads the worker's clock
         cell *)
      ("capped", { Charm.Config.default with Charm.Config.power_cap_mw = 1e9 });
    ]

(* One level of the graph kernels' frontier merge: pushing allocates
   nothing, and the merge only the next frontier (a small array, on the
   minor heap: one header word plus one per vertex) *)
let test_frontier_words () =
  let module F = Workloads.Frontier in
  let col = Array.init 120 (fun e -> e mod 37) in
  let f = F.of_edges ~col ~vertices:37 in
  let next = ref [||] in
  let level () =
    for chunk = 0 to 11 do
      let head = ref F.empty in
      for e = chunk * 10 to (chunk * 10) + 9 do
        head := F.push f ~head:!head e
      done;
      F.finish f !head
    done;
    next := F.next f
  in
  let w = words level in
  Alcotest.(check int) "37 distinct vertices" 37 (Array.length !next);
  Alcotest.(check (float 0.0)) "words for one level" 38.0 w;
  Alcotest.(check (float 0.0)) "words for the next level" 38.0 (words level)

(* BFS and SSSP on a scale-10 graph with CHARM's policy off (so no
   policy migration adds its own words mid-run): beyond what the
   scheduler spends on the kernel's tasks and quanta, each at its ceiling
   above, a run allocates less than one word per vertex.  The cons-list
   merge spent about 4 (BFS) and 32 (SSSP) times that: words per
   discovery and per relaxed edge. *)
let test_graph_kernel_words () =
  let open Workloads in
  let inst =
    Harness.Systems.make
      ~charm_config:{ Charm.Config.default with Charm.Config.profile_while_running = false }
      Harness.Systems.Charm Harness.Systems.Amd_milan ~n_workers:32 ()
  in
  let env = inst.Harness.Systems.env in
  let alloc ~elt_bytes ~count = env.Exec_env.alloc_shared ~elt_bytes ~count in
  let kron = Kronecker.generate ~seed:7 ~scale:10 ~edge_factor:16 () in
  let g = Csr.of_kronecker ~alloc ~seed:7 kron in
  let gw = Csr.of_kronecker ~alloc ~weighted:true ~seed:7 kron in
  List.iter
    (fun (name, run) ->
      (* warm up: an instance's first run allocates one-time state *)
      run ();
      let before = Harness.Systems.report inst in
      let w = words run in
      let after = Harness.Systems.report inst in
      let tasks = after.Stats.tasks_executed - before.Stats.tasks_executed in
      let quanta = after.Stats.context_switches - before.Stats.context_switches in
      let rest =
        w -. (float_of_int tasks *. max_words_per_task)
        -. (float_of_int quanta *. max_words_per_quantum)
      in
      if rest > float_of_int g.Csr.n then
        Alcotest.failf "%s: %.0f words beyond %d tasks and %d quanta, budget %d" name rest
          tasks quanta g.Csr.n)
    [
      ("bfs", fun () -> ignore (Bfs.run env g ~source:1));
      ("sssp", fun () -> ignore (Sssp.run env gw ~source:1));
    ]

(* The machine's energy meters are read per completed job (the serving
   ledger) and the power cap samples every chiplet: on the 128-core
   Milan a read allocates only its boxed result, and the array form
   nothing.  Before: 1,026 words per [combined_energy_pj] (two folds
   boxing their accumulator per core) and 25 per chiplet read (a
   closure over all 128 cores boxing its accumulator per hit). *)
let test_energy_meter_words () =
  let m = Machine.create (Presets.amd_milan ()) in
  for core = 0 to 127 do
    Machine.charge_quantum m ~core ~dt_ns:(float_of_int (core + 1)) ~dvfs:0.9
  done;
  let sink = ref 0.0 in
  Alcotest.(check (float 0.0))
    "combined_energy_pj words" (float_of_int draws *. boxed_float)
    (words (fun () ->
         for _ = 1 to draws do sink := Machine.combined_energy_pj m done));
  let dst = Array.make 16 0.0 in
  Alcotest.(check (float 0.0))
    "chiplet_energies words" 0.0
    (words (fun () -> for _ = 1 to draws do Machine.chiplet_energies m dst ~pos:0 done))

(* A power-cap tick that takes a sample (every chiplet's meter into the
   window ring, eviction, the windowed estimate) allocates nothing but
   the box its [~now_ns] argument arrives in.  Before: 532 words per
   sample (per chiplet a meter read of 25 words, a record and a queue
   cell, and a queue fold for each windowed estimate). *)
let test_power_cap_tick_words () =
  let m = Machine.create (Presets.amd_milan ()) in
  let pc = Charm.Power_cap.create m ~cap_mw:1e9 in
  let now = [| 0.0 |] in
  let tick () =
    now.(0) <- now.(0) +. 50_000.0;
    Machine.charge_quantum m ~core:(int_of_float now.(0) land 127) ~dt_ns:1000.0 ~dvfs:1.0;
    ignore (Sys.opaque_identity (Charm.Power_cap.tick pc ~now_ns:now.(0)))
  in
  (* fill the window so every measured sample also evicts *)
  for _ = 1 to 32 do tick () done;
  Alcotest.(check (float 0.0))
    "Power_cap.tick words per sample" (float_of_int draws *. boxed_float)
    (words (fun () -> for _ = 1 to draws do tick () done));
  Alcotest.(check bool) "the ticks sampled power" true (Charm.Power_cap.power_mw pc > 0.0)

(* A served GUPS-only session on CHARM (policy off, as above): beyond
   what the scheduler spends on the jobs' tasks and quanta, each at its
   ceiling above, a job allocates at most this many words for
   admission, the fair queue, dispatch, its future and its completion's
   ledgers.  Measured on OCaml 5.1.1: 83 words per job (157 before the
   task and quantum ceilings are taken off); 1,176 while completion
   summed the energy meters with boxing folds and built its counter key
   per job. *)
let max_words_per_served_job = 150.0

let test_served_job_words () =
  let module S = Serving.Server in
  let inst =
    Harness.Systems.make
      ~charm_config:{ Charm.Config.default with Charm.Config.profile_while_running = false }
      Harness.Systems.Charm Harness.Systems.Amd_milan ~n_workers:16 ()
  in
  let kind = Serving.Job.Gups 256 in
  let base = S.default_config ~seed:3 in
  let tenant = { (List.hd base.S.tenants) with S.mix = [ (kind, 1) ] } in
  let sess =
    S.Session.create inst { base with S.tenants = [ tenant ] }
      (Serving.Job.prepare inst.Harness.Systems.env base.S.data)
  in
  let submitted = ref 0 in
  let batch () =
    let at = S.Session.backlog_ns sess in
    for _ = 1 to 16 do
      let id = !submitted in
      incr submitted;
      match S.Session.submit sess { S.id; tenant = 0; kind; seed = id; submit_ns = at } with
      | Serving.Admission.Admit -> ()
      | _ -> Alcotest.fail "a job was shed"
    done;
    S.Session.drain sess ~horizon:infinity ~kick_ns:at
  in
  (* warm up: the first batch registers the session's counters *)
  batch ();
  let before = Harness.Systems.report inst and jobs0 = !submitted in
  let w = words (fun () -> for _ = 1 to 8 do batch () done) in
  let after = Harness.Systems.report inst in
  let tasks = after.Stats.tasks_executed - before.Stats.tasks_executed in
  let quanta = after.Stats.context_switches - before.Stats.context_switches in
  let jobs = !submitted - jobs0 in
  let per_job =
    (w -. (float_of_int tasks *. max_words_per_task)
    -. (float_of_int quanta *. max_words_per_quantum))
    /. float_of_int jobs
  in
  if per_job > max_words_per_served_job then
    Alcotest.failf "%.0f words per served job beyond %d tasks and %d quanta, ceiling %.0f"
      per_job tasks quanta max_words_per_served_job

(* The directory places a region's 64-line pages when the machine places
   the region, and nothing before: [Machine.alloc] of an N-line region
   allocates at most its N/64 pages (65 words each), a few words for the
   region's record and the directory's top-level array, doubled once to
   cover the pages (at most two words a page).  A new directory holds no
   page (59 words measured: its record, a 16-entry top-level array and an
   empty Intmap), so [Machine.create] no longer allocates the 65,536-word
   mask array it used to: a 2-chiplet machine's caches, channels and
   tables come to about 54,600 words.  The region's first accesses then
   allocate nothing. *)
let test_directory_pages_words () =
  let dir = all_words (fun () -> ignore (Sys.opaque_identity (Directory.create ~chiplets:62))) in
  if dir > 128.0 then Alcotest.failf "Directory.create: %.0f words" dir;
  let tiny =
    Topology.v ~sockets:1 ~chiplets_per_socket:2 ~cores_per_chiplet:2 ~chiplet_group_size:1
      ~l3_bytes_per_chiplet:(16 * 1024) ~l2_bytes_per_core:4096 ~mem_channels_per_socket:2 ()
  in
  let create = all_words (fun () -> ignore (Sys.opaque_identity (Machine.create tiny))) in
  if create >= 65_536.0 then
    Alcotest.failf "Machine.create on a 2-chiplet machine: %.0f words" create;
  let m = Machine.create (Presets.amd_milan ()) in
  let pages = 1024 in
  let lines = 64 * pages in
  let alloc () = Machine.alloc m ~elt_bytes:64 ~count:lines () in
  let w = all_words (fun () -> ignore (Sys.opaque_identity (alloc ()))) in
  (* the region's record and the call's own boxes: 9 words measured *)
  let record = 16 in
  let budget = (pages * 65) + (2 * (pages + 1)) + 1 + record in
  if w > float_of_int budget then
    Alcotest.failf "Machine.alloc of %d lines: %.0f words, budget %d" lines w budget;
  let r = alloc () and clk = [| 0.0 |] in
  Alcotest.(check (float 0.0))
    "first touches of a region's lines" 0.0
    (all_words (fun () ->
         for i = 0 to lines - 1 do
           Machine.access_clk m ~core:(i land 127) ~write:(i land 3 = 0) (Simmem.addr r i) clk 0
         done))

(* A fleet prepares its datasets on one shard and places them on the
   others: placing allocates the regions, a fresh OLTP table and log,
   and the records that hold them, but generates nothing.  Measured on
   OCaml 5.1.1 with the default data: 98.8k words to place against
   508.0k to prepare (of which TPC-H 387k, the CSR 39k, Kronecker 17k
   and YCSB 61k); the YCSB table's 53k-word value array is over half of
   the placement. *)
let test_place_words () =
  let env () =
    (Harness.Systems.make Harness.Systems.Charm Harness.Systems.Amd_milan ~n_workers:8 ())
      .Harness.Systems.env
  in
  let cfg = Serving.Job.default_data_config in
  let e0 = env () and e1 = env () in
  let d = ref None in
  let prepare = all_words (fun () -> d := Some (Serving.Job.prepare e0 cfg)) in
  let place =
    all_words (fun () -> ignore (Sys.opaque_identity (Serving.Job.place e1 (Option.get !d))))
  in
  if place *. 4.0 >= prepare then
    Alcotest.failf "Job.place: %.0f words, Job.prepare %.0f; ceiling a quarter" place prepare

let suite =
  [
    Alcotest.test_case "rng draws" `Quick test_rng_draws;
    Alcotest.test_case "hash agg row" `Quick test_hash_agg_row;
    Alcotest.test_case "hash join" `Quick test_hash_join;
    Alcotest.test_case "words per quantum" `Quick test_quantum_words;
    Alcotest.test_case "words per parallel_for task" `Quick test_parallel_for_words;
    Alcotest.test_case "words per spawned task" `Quick test_spawn_words;
    Alcotest.test_case "task finishes retain nothing" `Quick test_finishes_retain_nothing;
    Alcotest.test_case "policy tick" `Quick test_policy_tick_words;
    Alcotest.test_case "quantum-end hook" `Quick test_quantum_end_hook_words;
    Alcotest.test_case "frontier merge" `Quick test_frontier_words;
    Alcotest.test_case "directory pages" `Quick test_directory_pages_words;
    Alcotest.test_case "bfs and sssp words" `Quick test_graph_kernel_words;
    Alcotest.test_case "energy meter reads" `Quick test_energy_meter_words;
    Alcotest.test_case "power-cap sample" `Quick test_power_cap_tick_words;
    Alcotest.test_case "served job words" `Quick test_served_job_words;
    Alcotest.test_case "dataset placement words" `Quick test_place_words;
  ]
