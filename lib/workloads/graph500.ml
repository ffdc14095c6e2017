type params = { scale : int; edge_factor : int; roots : int; seed : int }

let default_params = { scale = 14; edge_factor = 16; roots = 4; seed = 99 }

let run env g params =
  if params.roots <= 0 then invalid_arg "Graph500.run: roots must be positive";
  let rng = Chipsim.Rng.create params.seed in
  let makespan = ref 0.0 in
  let edges = ref 0 in
  for _ = 1 to params.roots do
    (* pick a root with non-zero degree, as Graph500 mandates *)
    let rec pick tries =
      let v = Chipsim.Rng.int rng g.Csr.n in
      if Csr.degree g v > 0 || tries > 100 then v else pick (tries + 1)
    in
    let source = pick 0 in
    let _levels, result = Bfs.run env g ~source in
    makespan := !makespan +. result.Workload_result.makespan_ns;
    edges := !edges + result.Workload_result.work_items
  done;
  Workload_result.v ~label:"graph500" ~makespan_ns:!makespan ~work_items:!edges

let teps result = Workload_result.throughput_per_s result
