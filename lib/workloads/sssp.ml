module Sched = Engine.Sched

let compute_ns_per_edge = 1.2

let reference g ~source =
  let n = g.Csr.n in
  let dist = Array.make n max_int in
  dist.(source) <- 0;
  let module Pq = Set.Make (struct
    type t = int * int  (* dist, vertex *)

    let compare = compare
  end) in
  let pq = ref (Pq.singleton (0, source)) in
  while not (Pq.is_empty !pq) do
    let ((d, u) as min_elt) = Pq.min_elt !pq in
    pq := Pq.remove min_elt !pq;
    if d = dist.(u) then
      Csr.out_neighbors g u (fun v w ->
          if d + w < dist.(v) then begin
            dist.(v) <- d + w;
            pq := Pq.add (dist.(v), v) !pq
          end)
  done;
  dist

let run env g ~source =
  let n = g.Csr.n in
  let row_ptr = g.Csr.row_ptr and col = g.Csr.col and weight = g.Csr.weight in
  let sim_dist = env.Exec_env.alloc_shared ~elt_bytes:8 ~count:n in
  let dist = Array.make n max_int in
  let work = ref 0 in
  let makespan =
    Exec_env.run env (fun ctx ->
        dist.(source) <- 0;
        Sched.Ctx.write ctx sim_dist source;
        let frontier = ref [| source |] in
        while Array.length !frontier > 0 do
          let fr = !frontier in
          let workers = Sched.n_workers (Sched.Ctx.sched ctx) in
          let grain = max 16 (Array.length fr / (4 * workers)) in
          let buffers = ref [] in
          Engine.Par.parallel_for ctx ~lo:0 ~hi:(Array.length fr) ~grain
            (fun ctx' lo hi ->
              let local = ref [] in
              let local_edges = ref 0 in
              for i = lo to hi - 1 do
                let u = fr.(i) in
                Csr.read_adj ctx' g u;
                Sched.Ctx.read ctx' sim_dist u;
                let du = dist.(u) in
                for e = row_ptr.(u) to row_ptr.(u + 1) - 1 do
                  let v = col.(e) and w = weight.(e) in
                  incr local_edges;
                  Sched.Ctx.read ctx' sim_dist v;
                  if du <> max_int && du + w < dist.(v) then begin
                    dist.(v) <- du + w;
                    Sched.Ctx.write ctx' sim_dist v;
                    local := v :: !local
                  end
                done;
                Sched.Ctx.maybe_yield ctx'
              done;
              Sched.Ctx.work ctx' (compute_ns_per_edge *. float_of_int !local_edges);
              work := !work + !local_edges;
              buffers := !local :: !buffers);
          (* dedup the next frontier *)
          let seen = Hashtbl.create 64 in
          let next =
            List.concat !buffers
            |> List.filter (fun v ->
                   if Hashtbl.mem seen v then false
                   else begin
                     Hashtbl.add seen v ();
                     true
                   end)
          in
          frontier := Array.of_list next
        done)
  in
  (dist, Workload_result.v ~label:"sssp" ~makespan_ns:makespan ~work_items:!work)
