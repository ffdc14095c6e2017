module Sched = Engine.Sched

type params = {
  points : int;
  dims : int;
  batch : int;
  k_max : int;
  search_rounds : int;
  seed : int;
}

type outcome = {
  result : Workload_result.t;
  total_cost : float;
  centers_opened : int;
}

let flop_ns_per_dim = 2.0

let sq_dist data dims a b =
  let acc = ref 0.0 in
  for d = 0 to dims - 1 do
    let diff = data.((a * dims) + d) -. data.((b * dims) + d) in
    acc := !acc +. (diff *. diff)
  done;
  !acc

let run env params =
  if params.batch <= 0 || params.points < params.batch then
    invalid_arg "Streamcluster.run: need at least one full batch";
  let dims = params.dims in
  let data =
    let rng = Chipsim.Rng.create params.seed in
    Array.init (params.points * dims) (fun _ -> Chipsim.Rng.float rng 100.0)
  in
  let sim_points = env.Exec_env.alloc_shared ~elt_bytes:4 ~count:(params.points * dims) in
  (* center list: indices of points promoted to centers (shared, written) *)
  let sim_centers = env.Exec_env.alloc_shared ~elt_bytes:8 ~count:params.k_max in
  let sim_assign = env.Exec_env.alloc_shared ~elt_bytes:8 ~count:params.points in
  let assign = Array.make params.points 0 in
  let cost = Array.make params.points 0.0 in
  let evals = ref 0 in
  let opened_total = ref 0 in
  let total_cost = ref 0.0 in
  let rng = Chipsim.Rng.create (params.seed + 1) in
  let makespan =
    Exec_env.run env (fun ctx ->
        let batches = params.points / params.batch in
        for b = 0 to batches - 1 do
          let base = b * params.batch in
          let centers = ref [ base ] in
          (* read a point row and one center row, compute the distance *)
          let charged_dist ctx' p c =
            Sched.Ctx.read_range ctx' sim_points ~lo:(p * dims) ~hi:((p + 1) * dims);
            Sched.Ctx.read_range ctx' sim_points ~lo:(c * dims) ~hi:((c + 1) * dims);
            Sched.Ctx.work ctx' (flop_ns_per_dim *. float_of_int dims);
            incr evals;
            sq_dist data dims p c
          in
          let assign_phase () =
            Engine.Par.parallel_for ctx ~lo:base ~hi:(base + params.batch)
              (fun ctx' lo hi ->
                let cs = !centers in
                for p = lo to hi - 1 do
                  Sched.Ctx.read ctx' sim_centers 0;
                  let best_c = ref (List.hd cs) and best_d = ref infinity in
                  List.iter
                    (fun c ->
                      let d = charged_dist ctx' p c in
                      if d < !best_d then begin
                        best_d := d;
                        best_c := c
                      end)
                    cs;
                  assign.(p) <- !best_c;
                  cost.(p) <- !best_d;
                  Sched.Ctx.write ctx' sim_assign p;
                  Sched.Ctx.maybe_yield ctx'
                done)
          in
          assign_phase ();
          (* local search: try opening random candidates *)
          for _round = 1 to params.search_rounds do
            if List.length !centers < params.k_max then begin
              let candidate = base + Chipsim.Rng.int rng params.batch in
              if not (List.mem candidate !centers) then begin
                let gain = ref 0.0 in
                Engine.Par.parallel_for ctx ~lo:base ~hi:(base + params.batch)
                  (fun ctx' lo hi ->
                    let local_gain = ref 0.0 in
                    for p = lo to hi - 1 do
                      let d = charged_dist ctx' p candidate in
                      Sched.Ctx.read ctx' sim_assign p;
                      if d < cost.(p) then local_gain := !local_gain +. (cost.(p) -. d);
                      Sched.Ctx.maybe_yield ctx'
                    done;
                    gain := !gain +. !local_gain);
                (* opening cost: proportional to current center count *)
                let open_cost = 50.0 *. float_of_int (List.length !centers) in
                if !gain > open_cost then begin
                  centers := candidate :: !centers;
                  incr opened_total;
                  Sched.Ctx.write ctx sim_centers (List.length !centers - 1);
                  (* reassign with the new center *)
                  Engine.Par.parallel_for ctx ~lo:base ~hi:(base + params.batch)
                    (fun ctx' lo hi ->
                      for p = lo to hi - 1 do
                        let d = charged_dist ctx' p candidate in
                        if d < cost.(p) then begin
                          cost.(p) <- d;
                          assign.(p) <- candidate;
                          Sched.Ctx.write ctx' sim_assign p
                        end;
                        Sched.Ctx.maybe_yield ctx'
                      done)
                end
              end
            end
          done;
          for p = base to base + params.batch - 1 do
            total_cost := !total_cost +. cost.(p)
          done
        done)
  in
  {
    result =
      Workload_result.v ~label:"streamcluster" ~makespan_ns:makespan
        ~work_items:!evals;
    total_cost = !total_cost;
    centers_opened = !opened_total;
  }
