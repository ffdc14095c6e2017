open Chipsim

let call ctx ~worker f =
  let sched = Sched.Ctx.sched ctx in
  let machine = Sched.Ctx.machine ctx in
  let here = Sched.Ctx.core ctx in
  let there = Sched.worker_core sched worker in
  let delay = Machine.core_to_core_ns machine here there in
  Sched.Ctx.spawn ctx ~worker ~at:(Sched.Ctx.now ctx +. delay) f

let all_do ctx f =
  let sched = Sched.Ctx.sched ctx in
  let n = Sched.n_workers sched in
  let tasks = List.init n (fun w -> call ctx ~worker:w (fun ctx' -> f ctx' w)) in
  List.iter (fun task -> Sched.Ctx.await ctx task) tasks

let parallel_for ctx ~lo ~hi ?grain f =
  if hi > lo then begin
    let sched = Sched.Ctx.sched ctx in
    let n = Sched.n_workers sched in
    let span = hi - lo in
    let grain =
      match grain with
      | Some g ->
          if g <= 0 then invalid_arg "Par.parallel_for: grain must be positive";
          g
      | None -> max 1 (span / (4 * n))
    in
    let npieces = (span + grain - 1) / grain in
    (* block distribution: adjacent chunks land on the same worker, so a
       worker's L3 keeps seeing the same data range across phases *)
    let tasks =
      Array.init npieces (fun k ->
          let clo = lo + (k * grain) in
          let chi = min hi (clo + grain) in
          let worker = min (n - 1) (k * n / npieces) in
          Sched.Ctx.spawn ctx ~worker (fun ctx' -> f ctx' clo chi))
    in
    Array.iter (fun task -> Sched.Ctx.await ctx task) tasks
  end
