module Sched = Engine.Sched

type params = { table_words : int; updates : int; seed : int }

let default_params = { table_words = 1 lsl 18; updates = 1 lsl 16; seed = 17 }

let run env params =
  if params.table_words <= 0 || params.updates <= 0 then
    invalid_arg "Gups.run: table and update counts must be positive";
  let table = env.Exec_env.alloc_shared ~elt_bytes:8 ~count:params.table_words in
  let workers = Exec_env.n_workers env in
  let per_worker = (params.updates + workers - 1) / workers in
  let makespan =
    Exec_env.run env (fun ctx ->
        Engine.Par.all_do ctx (fun ctx' w ->
            let rng = Engine.Rng.create (params.seed + w) in
            for i = 0 to per_worker - 1 do
              let idx = Engine.Rng.int rng params.table_words in
              Sched.Ctx.read ctx' table idx;
              Sched.Ctx.write ctx' table idx;
              Sched.Ctx.work ctx' 2.0;
              if i land 255 = 255 then Sched.Ctx.maybe_yield ctx'
            done))
  in
  Workload_result.v ~label:"gups" ~makespan_ns:makespan
    ~work_items:(per_worker * workers)

let gups result =
  Workload_result.throughput_per_s result /. 1e9
