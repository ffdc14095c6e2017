module Sched = Engine.Sched
module Exec_env = Workloads.Exec_env
module Workload_result = Workloads.Workload_result

let read_pct = 45

type params = {
  records : int;
  payload_words : int;
  ops : int;
  seed : int;
}

let default_params = { records = 65_536; payload_words = 13; ops = 20_000; seed = 21 }

type outcome = {
  result : Workload_result.t;
  commits : int;
  commits_per_second : float;
  reads : int;
  rmws : int;
  read_sum : int;
}

let run env params =
  let alloc = env.Exec_env.alloc_shared in
  let table =
    Storage.create_table ~alloc ~name:"usertable" ~rows:params.records
      ~payload_words:params.payload_words
  in
  let engine = Txn.create ~alloc in
  let workers = Exec_env.n_workers env in
  let per_worker = (params.ops + workers - 1) / workers in
  let read_sum = ref 0 in
  let reads = ref 0 and rmws = ref 0 in
  let makespan =
    Exec_env.run env (fun ctx ->
        Engine.Par.all_do ctx (fun ctx' w ->
            let rng = Chipsim.Rng.create (params.seed + w) in
            for i = 0 to per_worker - 1 do
              (* the dice, then the key: the order every YCSB stream was
                 recorded with *)
              let dice = Chipsim.Rng.int rng 100 in
              let key = Chipsim.Rng.int rng params.records in
              if dice < read_pct then begin
                incr reads;
                read_sum := !read_sum + Storage.read_record ctx' table key
              end
              else begin
                incr rmws;
                let v = Storage.read_record ctx' table key in
                Storage.write_record ctx' table key (v + 1)
              end;
              Txn.commit engine ctx';
              if i land 63 = 63 then Sched.Ctx.maybe_yield ctx'
            done))
  in
  {
    result =
      Workload_result.v ~label:"ycsb" ~makespan_ns:makespan
        ~work_items:(per_worker * workers);
    commits = Txn.commits engine;
    commits_per_second = Txn.commits_per_second engine ~makespan_ns:makespan;
    reads = !reads;
    rmws = !rmws;
    read_sum = !read_sum;
  }
