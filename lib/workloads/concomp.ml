module Sched = Engine.Sched

let max_iterations = 64
let compute_ns_per_edge = 1.0

let reference g =
  let n = g.Csr.n in
  let parent = Array.init n (fun i -> i) in
  let rec find x = if parent.(x) = x then x else (parent.(x) <- find parent.(x); parent.(x)) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
  in
  for u = 0 to n - 1 do
    Csr.out_neighbors g u (fun v _w -> union u v)
  done;
  Array.init n find

let run env g =
  let n = g.Csr.n in
  let row_ptr = g.Csr.row_ptr and col = g.Csr.col in
  let sim_label = env.Exec_env.alloc_shared ~elt_bytes:8 ~count:n in
  let label = Array.init n (fun i -> i) in
  let work = ref 0 in
  let makespan =
    env.Exec_env.run (fun ctx ->
        let changed = ref true in
        let iter = ref 0 in
        while !changed && !iter < max_iterations do
          changed := false;
          incr iter;
          Engine.Par.parallel_for ctx ~lo:0 ~hi:n (fun ctx' lo hi ->
              let local_edges = ref 0 in
              let local_changed = ref false in
              for u = lo to hi - 1 do
                if Csr.degree g u > 0 then begin
                  Csr.read_adj ctx' g u;
                  Sched.Ctx.read ctx' sim_label u;
                  let lu = label.(u) in
                  for e = row_ptr.(u) to row_ptr.(u + 1) - 1 do
                    let v = col.(e) in
                    incr local_edges;
                    Sched.Ctx.read ctx' sim_label v;
                    if label.(v) > lu then begin
                      label.(v) <- lu;
                      Sched.Ctx.write ctx' sim_label v;
                      local_changed := true
                    end
                    else if label.(v) < lu && label.(v) < label.(u) then begin
                      label.(u) <- label.(v);
                      Sched.Ctx.write ctx' sim_label u;
                      local_changed := true
                    end
                  done
                end;
                Sched.Ctx.maybe_yield ctx'
              done;
              Sched.Ctx.work ctx' (compute_ns_per_edge *. float_of_int !local_edges);
              work := !work + !local_edges;
              if !local_changed then changed := true)
        done)
  in
  (label, Workload_result.v ~label:"cc" ~makespan_ns:makespan ~work_items:!work)
