(* Fig. 5: LocalCache vs DistributedCache write microbenchmark (§2.3).
   8 threads write disjoint segments of one vector, iterating with a
   barrier; the data size sweeps across the (scaled) single-chiplet L3
   capacity.  Paper shape: LocalCache wins below one L3 slice, then
   DistributedCache wins, peaking around 2.5x on huge arrays. *)

open Workloads
module Sched = Engine.Sched
module Sys_ = Harness.Systems

let cache_scale = 16  (* L3 slice = 2 MiB; aggregate on the socket = 16 MiB *)
let threads = 8

let time_one sys ~words =
  let inst = Sys_.make ~cache_scale sys Sys_.Amd_milan_1s ~n_workers:threads () in
  Util.attach_trace inst;
  let env = inst.Sys_.env in
  let region = env.Exec_env.alloc_shared ~elt_bytes:8 ~count:words in
  let seg = words / threads in
  let lines = max 1 (words / 8) in
  let iters = max 2 (min 16 (3_000_000 / lines)) in
  let barrier = Engine.Barrier.create threads in
  let makespan =
    Exec_env.run env (fun ctx ->
        Engine.Par.all_do ctx (fun ctx' w ->
            let lo = w * seg and hi = (w + 1) * seg in
            (* warm-up pass (the paper sets all elements to 1 first) *)
            Sched.Ctx.write_range ctx' region ~lo ~hi;
            Engine.Barrier.wait ctx' barrier;
            for _ = 1 to iters do
              Sched.Ctx.write_range ctx' region ~lo ~hi;
              Engine.Barrier.wait ctx' barrier
            done))
  in
  makespan /. float_of_int iters

let run () =
  Util.section "Fig. 5 - LocalCache vs DistributedCache write speedup";
  Util.row "  (single socket, 8 chiplets; L3 slice scaled to 2 MiB)\n";
  Util.row "  %-10s %14s %14s %10s\n" "size" "local (us)" "distrib (us)" "local/dist";
  let sizes_bytes =
    [ 64 * 1024; 256 * 1024; 1 lsl 20; 2 * (1 lsl 20); 4 * (1 lsl 20);
      8 * (1 lsl 20); 16 * (1 lsl 20); 32 * (1 lsl 20) ]
  in
  List.iter
    (fun bytes ->
      let words = bytes / 8 in
      let local = time_one Sys_.Local_cache ~words in
      let dist = time_one Sys_.Distributed_cache ~words in
      let label =
        if bytes >= 1 lsl 20 then Printf.sprintf "%dMiB" (bytes / (1 lsl 20))
        else Printf.sprintf "%dKiB" (bytes / 1024)
      in
      Util.row "  %-10s %14.2f %14.2f %10.2f\n" label (local /. 1e3) (dist /. 1e3)
        (local /. dist))
    sizes_bytes;
  Util.row "  (ratio < 1: LocalCache faster; > 1: DistributedCache faster)\n"
