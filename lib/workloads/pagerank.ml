module Sched = Engine.Sched

let compute_ns_per_edge = 1.0

let reference g ?(iterations = 3) ?(damping = 0.85) () =
  let n = g.Csr.n in
  let rank = Array.make n (1.0 /. float_of_int n) in
  let next = Array.make n 0.0 in
  for _ = 1 to iterations do
    Array.fill next 0 n 0.0;
    for u = 0 to n - 1 do
      let d = Csr.degree g u in
      if d > 0 then begin
        let share = rank.(u) /. float_of_int d in
        Csr.out_neighbors g u (fun v _w -> next.(v) <- next.(v) +. share)
      end
    done;
    let base = (1.0 -. damping) /. float_of_int n in
    for v = 0 to n - 1 do
      rank.(v) <- base +. (damping *. next.(v))
    done
  done;
  rank

(* The iteration body, runnable from inside any task — the serving layer
   dispatches it as one concurrent job; [run] wraps it as a main task. *)
let run_in ctx g ~ranks ~next:sim_next ?(iterations = 3) ?(damping = 0.85) () =
  let n = g.Csr.n in
  let row_ptr = g.Csr.row_ptr and col = g.Csr.col in
  let rank = Array.make n (1.0 /. float_of_int n) in
  let next = Array.make n 0.0 in
  let work = ref 0 in
  for _iter = 1 to iterations do
    Engine.Par.parallel_for ctx ~lo:0 ~hi:n (fun ctx' lo hi ->
        let local_edges = ref 0 in
        for u = lo to hi - 1 do
          let d = Csr.degree g u in
          if d > 0 then begin
            Csr.read_adj ctx' g u;
            Sched.Ctx.read ctx' ranks u;
            let share = rank.(u) /. float_of_int d in
            for e = row_ptr.(u) to row_ptr.(u + 1) - 1 do
              let v = col.(e) in
              incr local_edges;
              next.(v) <- next.(v) +. share;
              Sched.Ctx.write ctx' sim_next v
            done
          end;
          Sched.Ctx.maybe_yield ctx'
        done;
        Sched.Ctx.work ctx' (compute_ns_per_edge *. float_of_int !local_edges);
        work := !work + !local_edges);
    let base = (1.0 -. damping) /. float_of_int n in
    Engine.Par.parallel_for ctx ~lo:0 ~hi:n (fun ctx' lo hi ->
        Sched.Ctx.read_range ctx' sim_next ~lo ~hi;
        Sched.Ctx.write_range ctx' ranks ~lo ~hi;
        for v = lo to hi - 1 do
          rank.(v) <- base +. (damping *. next.(v));
          next.(v) <- 0.0
        done;
        Sched.Ctx.work ctx' (0.5 *. float_of_int (hi - lo)))
  done;
  (rank, !work)

let run env g ?(iterations = 3) ?(damping = 0.85) () =
  let n = g.Csr.n in
  let sim_rank = env.Exec_env.alloc_shared ~elt_bytes:8 ~count:n in
  let sim_next = env.Exec_env.alloc_shared ~elt_bytes:8 ~count:n in
  let out = ref ([||], 0) in
  let makespan =
    Exec_env.run env (fun ctx ->
        out := run_in ctx g ~ranks:sim_rank ~next:sim_next ~iterations ~damping ())
  in
  let rank, work = !out in
  (rank, Workload_result.v ~label:"pagerank" ~makespan_ns:makespan ~work_items:work)
