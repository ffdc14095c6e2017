module Sched = Engine.Sched

let compute_ns_per_edge = 1.0

let reference g ~source =
  let n = g.Csr.n in
  let level = Array.make n (-1) in
  level.(source) <- 0;
  let q = Queue.create () in
  Queue.add source q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Csr.out_neighbors g u (fun v _w ->
        if level.(v) = -1 then begin
          level.(v) <- level.(u) + 1;
          Queue.add v q
        end)
  done;
  level

(* The level-synchronous traversal itself, runnable from inside any task:
   the serving layer dispatches this as one job among many concurrent ones,
   while [run] below wraps it as a whole-machine main task. *)
let run_in ctx g ~levels ~source =
  let n = g.Csr.n in
  let row_ptr = g.Csr.row_ptr and col = g.Csr.col in
  let level = Array.make n (-1) in
  let edges = ref 0 in
  level.(source) <- 0;
  Sched.Ctx.write ctx levels source;
  let frontier = ref [| source |] in
  let depth = ref 0 in
  while Array.length !frontier > 0 do
    let fr = !frontier in
    let next_level = !depth + 1 in
    let workers = Sched.n_workers (Sched.Ctx.sched ctx) in
    let grain = max 16 (Array.length fr / (4 * workers)) in
    (* per-chunk discovered vertices, merged after the barrier *)
    let buffers = ref [] in
    Engine.Par.parallel_for ctx ~lo:0 ~hi:(Array.length fr) ~grain
      (fun ctx' lo hi ->
        let local = ref [] in
        let local_edges = ref 0 in
        for i = lo to hi - 1 do
          let u = fr.(i) in
          Csr.read_adj ctx' g u;
          (* the edge loop is written out, not passed to
             [Csr.out_neighbors]: no closure per vertex *)
          for e = row_ptr.(u) to row_ptr.(u + 1) - 1 do
            let v = col.(e) in
            incr local_edges;
            Sched.Ctx.read ctx' levels v;
            if level.(v) = -1 then begin
              level.(v) <- next_level;
              Sched.Ctx.write ctx' levels v;
              local := v :: !local
            end
          done;
          Sched.Ctx.maybe_yield ctx'
        done;
        Sched.Ctx.work ctx' (compute_ns_per_edge *. float_of_int !local_edges);
        edges := !edges + !local_edges;
        buffers := !local :: !buffers);
    frontier := Array.of_list (List.concat !buffers);
    incr depth
  done;
  (level, !edges)

let run env g ~source =
  let sim_level = env.Exec_env.alloc_shared ~elt_bytes:8 ~count:g.Csr.n in
  let out = ref ([||], 0) in
  let makespan =
    Exec_env.run env (fun ctx -> out := run_in ctx g ~levels:sim_level ~source)
  in
  let level, edges = !out in
  (level, Workload_result.v ~label:"bfs" ~makespan_ns:makespan ~work_items:edges)
