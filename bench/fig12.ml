(* Fig. 12: thread concurrency during SGD at 32 cores.  Paper shape:
   DimmWitted's std::async model fluctuates around a mean of ~16 active
   threads while creating 641 threads in total; CHARM holds a stable ~31
   with only ~34 threads created (cooperative coroutines on pinned
   workers). *)

open Workloads
module Sys_ = Harness.Systems

let workers = 32

let observe sys =
  let inst = Sys_.make ~cache_scale:16 sys (Util.machine Sys_.Amd_milan) ~n_workers:workers () in
  Util.attach_trace inst;
  let env = inst.Sys_.env in
  let data =
    Dataset.generate
      ~alloc:(fun ~elt_bytes ~count -> env.Exec_env.alloc_shared ~elt_bytes ~count)
      ~samples:1024 ~features:512 ()
  in
  let model = Sgd.make_model env ~replica:Sgd.Per_node ~features:512 in
  for _ = 1 to 5 do
    ignore (Sgd.gradient_epoch env model data : Workload_result.t)
  done;
  let sched = env.Exec_env.sched in
  match sys with
  | Sys_.Dw_native | Sys_.Charm_os_threads ->
      (* time-weighted over task finishes: threads come and go with tasks
         (clamped to cores, i.e. schedulable concurrency), one kernel
         thread made per task *)
      let mean, var = Engine.Sched.concurrency sched in
      (mean, sqrt var, Engine.Sched.total_spawned sched)
  | _ ->
      (* CHARM: the worker pool is fixed, so thread concurrency is the
         pinned workers plus the main thread for the whole run *)
      (float_of_int (workers + 1), 0.0, workers + 1)

let run () =
  Util.section "Fig. 12 - thread concurrency during SGD (32 cores)";
  Util.row "  %-22s %12s %12s %14s\n" "system" "mean" "stddev" "threads made";
  List.iter
    (fun (label, sys) ->
      let mean, sd, spawned = observe sys in
      Util.row "  %-22s %12.1f %12.1f %14d\n" label mean sd spawned)
    [ ("DimmWitted (native)", Sys_.Dw_native); ("DW+CHARM", Sys_.Charm) ]
