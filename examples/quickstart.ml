(* Quickstart: bring up CHARM on a simulated dual-socket AMD Milan, run a
   parallel computation through the paper's API (CHARM_Init =
   Systems.make, parallel_for / all_do = Engine.Par, barrier =
   Engine.Barrier, CHARM_Finalize = Systems.report), and read the
   chiplet-level statistics.

   Run with: dune exec examples/quickstart.exe *)

open Chipsim
module Systems = Harness.Systems
module Exec_env = Workloads.Exec_env
module Sched = Engine.Sched

let () =
  (* 1. CHARM_Init: a 2 socket x 8 chiplet x 8 core machine (32 MB L3 per
     chiplet) with 16 worker threads, placed compactly by Alg. 2 *)
  let inst = Systems.make Systems.Charm Systems.Amd_milan ~n_workers:16 () in
  let env = inst.Systems.env in
  Format.printf "machine: %a@." Topology.pp (Machine.topology inst.Systems.machine);

  (* 2. allocate a shared dataset and fill it in parallel *)
  let n = 1 lsl 18 in
  let data = env.Exec_env.alloc_shared ~elt_bytes:8 ~count:n in
  let values = Array.make n 0 in
  let makespan =
    Exec_env.run env (fun ctx ->
        Engine.Par.parallel_for ctx ~lo:0 ~hi:n (fun ctx' lo hi ->
            Sched.Ctx.write_range ctx' data ~lo ~hi;
            for i = lo to hi - 1 do
              values.(i) <- i * i
            done))
  in
  Printf.printf "parallel fill of %d elements: %.3f ms virtual time\n" n
    (makespan /. 1e6);

  (* 3. every worker reports in via all_do + barrier *)
  let b = Engine.Barrier.create 16 in
  let sum = ref 0 in
  ignore
    (Exec_env.run env (fun ctx ->
         Engine.Par.all_do ctx (fun ctx' w ->
             Engine.Barrier.wait ctx' b;
             sum := !sum + w))
      : float);
  Printf.printf "all %d workers synchronized (sum of ids = %d)\n" 16 !sum;

  (* 4. CHARM_Finalize: chiplet-aware statistics *)
  Format.printf "%a@." Engine.Stats.pp (Systems.report inst);
  let policy = Charm.Runtime.policy (Option.get inst.Systems.charm) in
  Printf.printf "worker 0 spread_rate: %d\n"
    (Charm.Policy.spread_rate policy ~worker:0)
