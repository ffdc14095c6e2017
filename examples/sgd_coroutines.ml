(* Fine-grained task parallelism (paper §4.4 / Fig. 12): the same SGD
   workload executed with CHARM's cooperative coroutines and with a
   std::async-style one-kernel-thread-per-task model.  Coroutines keep
   thread concurrency stable and avoid creation/switch overheads.

   Run with: dune exec examples/sgd_coroutines.exe *)

open Workloads
module Sys_ = Harness.Systems

let workers = 32

let run sys =
  let inst = Sys_.make ~cache_scale:16 sys Sys_.Amd_milan ~n_workers:workers () in
  let env = inst.Sys_.env in
  let data =
    Dataset.generate
      ~alloc:(fun ~elt_bytes ~count -> env.Exec_env.alloc_shared ~elt_bytes ~count)
      ~samples:1024 ~features:512 ()
  in
  let outcome = Dimmwitted.run env ~replica:Sgd.Per_node data in
  let sched = env.Exec_env.sched in
  (outcome, Engine.Sched.total_spawned sched)

let () =
  Printf.printf "SGD on %d cores: coroutines vs kernel threads\n\n" workers;
  let charm, charm_tasks = run Sys_.Charm in
  let async, async_tasks = run Sys_.Charm_os_threads in
  Printf.printf "%-22s %14s %14s %10s %8s\n" "tasking model" "loss GB/s"
    "gradient GB/s" "accuracy" "tasks";
  Printf.printf "%-22s %14.2f %14.2f %10.3f %8d\n" "CHARM coroutines"
    charm.Dimmwitted.loss_gbps charm.Dimmwitted.gradient_gbps
    charm.Dimmwitted.accuracy charm_tasks;
  Printf.printf "%-22s %14.2f %14.2f %10.3f %8d\n" "std::async threads"
    async.Dimmwitted.loss_gbps async.Dimmwitted.gradient_gbps
    async.Dimmwitted.accuracy async_tasks;
  Printf.printf "\ncoroutine gradient speedup: %.2fx\n"
    (charm.Dimmwitted.gradient_gbps /. async.Dimmwitted.gradient_gbps)
