module Sched = Engine.Sched

(* log-device service time per committed transaction, and the commits a
   worker batches per log flush *)
let commit_service_ns = 350.0
let group_size = 8

type t = {
  sim_log_tail : Chipsim.Simmem.region;
  mutable log_busy_until : float;
  mutable n_commits : int;
  mutable pending : int array;  (* worker -> commits since last flush *)
}

let create ~alloc =
  {
    sim_log_tail = alloc ~elt_bytes:8 ~count:8;
    log_busy_until = 0.0;
    n_commits = 0;
    pending = Array.make 64 0;
  }

(* ERMIA-style pipelined group commit: each worker batches [group_size]
   transactions, then claims the shared log tail once (the hot line) and
   serialises the whole batch's service time on the log device. *)
let flush t ctx ~batch =
  Sched.Ctx.read ctx t.sim_log_tail 0;
  Sched.Ctx.write ctx t.sim_log_tail 0;
  let now = Sched.Ctx.now ctx in
  let start = Float.max now t.log_busy_until in
  let service = commit_service_ns *. float_of_int batch in
  t.log_busy_until <- start +. service;
  Sched.Ctx.work ctx (start -. now +. service)

let commit t ctx =
  t.n_commits <- t.n_commits + 1;
  let worker = Sched.Ctx.worker_id ctx in
  if worker >= Array.length t.pending then begin
    let grown = Array.make (2 * (worker + 1)) 0 in
    Array.blit t.pending 0 grown 0 (Array.length t.pending);
    t.pending <- grown
  end;
  let pending = 1 + t.pending.(worker) in
  if pending >= group_size then begin
    t.pending.(worker) <- 0;
    flush t ctx ~batch:pending
  end
  else begin
    t.pending.(worker) <- pending;
    (* commit record written to the worker-local buffer *)
    Sched.Ctx.work ctx (commit_service_ns *. 0.1)
  end

let commits t = t.n_commits

let commits_per_second t ~makespan_ns =
  if makespan_ns <= 0.0 then 0.0
  else float_of_int t.n_commits /. (makespan_ns /. 1e9)
