open Chipsim
module Sched = Engine.Sched

type replica = Per_core | Per_node | Per_machine

let replica_to_string = function
  | Per_core -> "per-core"
  | Per_node -> "per-node"
  | Per_machine -> "per-machine"

type model = {
  replica : replica;
  weights : float array array;
  sim_weights : Simmem.region array;
  owner_of_worker : int -> int;
}

let flop_ns_per_feature = 0.5
let sigmoid_ns = 5.0
let learning_rate = 0.05

let make_model env ~replica ~features =
  let machine = Exec_env.machine env in
  let topo = Machine.topology machine in
  let sched = env.Exec_env.sched in
  let copies =
    match replica with
    | Per_core -> Exec_env.n_workers env
    | Per_node -> topo.Topology.sockets
    | Per_machine -> 1
  in
  let owner_of_worker w =
    match replica with
    | Per_core -> w
    | Per_node -> Topology.socket_of_core topo (Sched.worker_core sched w)
    | Per_machine -> 0
  in
  {
    replica;
    weights = Array.init copies (fun _ -> Array.make features 0.0);
    sim_weights =
      Array.init copies (fun _ ->
          env.Exec_env.alloc_shared ~elt_bytes:4 ~count:features);
    owner_of_worker;
  }

let dot weights rows off features =
  let acc = ref 0.0 in
  for f = 0 to features - 1 do
    acc := !acc +. (weights.(f) *. rows.(off + f))
  done;
  !acc

let sigmoid z = 1.0 /. (1.0 +. exp (-.z))

let charge_sample ctx model data ~replica_idx ~sample ~write_model =
  let features = data.Dataset.features in
  let off = Dataset.row_offset data sample in
  Sched.Ctx.read_range ctx data.Dataset.sim_rows ~lo:off ~hi:(off + features);
  Sched.Ctx.read ctx data.Dataset.sim_labels sample;
  let w_region = model.sim_weights.(replica_idx) in
  Sched.Ctx.read_range ctx w_region ~lo:0 ~hi:features;
  if write_model then Sched.Ctx.write_range ctx w_region ~lo:0 ~hi:features;
  Sched.Ctx.work ctx ((flop_ns_per_feature *. float_of_int features) +. sigmoid_ns)

let loss_epoch env ?grain model data =
  let features = data.Dataset.features in
  let total_loss = ref 0.0 in
  let makespan =
    Exec_env.run env (fun ctx ->
        Engine.Par.parallel_for ctx ~lo:0 ~hi:data.Dataset.samples ?grain
          (fun ctx' lo hi ->
            let worker = Sched.Ctx.worker_id ctx' in
            let replica_idx = model.owner_of_worker worker in
            let weights = model.weights.(replica_idx) in
            let local = ref 0.0 in
            for s = lo to hi - 1 do
              charge_sample ctx' model data ~replica_idx ~sample:s
                ~write_model:false;
              let z = dot weights data.Dataset.rows (Dataset.row_offset data s) features in
              let y = data.Dataset.labels.(s) in
              let p = sigmoid (y *. z) in
              local := !local -. log (Float.max p 1e-12);
              Sched.Ctx.maybe_yield ctx'
            done;
            total_loss := !total_loss +. !local))
  in
  ( !total_loss /. float_of_int data.Dataset.samples,
    Workload_result.v ~label:"sgd-loss" ~makespan_ns:makespan
      ~work_items:(Dataset.bytes data) )

let gradient_epoch env ?grain model data =
  let features = data.Dataset.features in
  let makespan =
    Exec_env.run env (fun ctx ->
        Engine.Par.parallel_for ctx ~lo:0 ~hi:data.Dataset.samples ?grain
          (fun ctx' lo hi ->
            let worker = Sched.Ctx.worker_id ctx' in
            let replica_idx = model.owner_of_worker worker in
            let weights = model.weights.(replica_idx) in
            for s = lo to hi - 1 do
              charge_sample ctx' model data ~replica_idx ~sample:s
                ~write_model:true;
              let off = Dataset.row_offset data s in
              let z = dot weights data.Dataset.rows off features in
              let y = data.Dataset.labels.(s) in
              (* d/dw of -log sigmoid(y z) = -y x sigmoid(-y z) *)
              let g = -.y *. sigmoid (-.y *. z) in
              for f = 0 to features - 1 do
                weights.(f) <-
                  weights.(f) -. (learning_rate *. g *. data.Dataset.rows.(off + f))
              done;
              Sched.Ctx.maybe_yield ctx'
            done))
  in
  (* model averaging across replicas (DimmWitted's reconciliation) *)
  let copies = Array.length model.weights in
  if copies > 1 then begin
    let avg = Array.make features 0.0 in
    Array.iter
      (fun w ->
        for f = 0 to features - 1 do
          avg.(f) <- avg.(f) +. w.(f)
        done)
      model.weights;
    for f = 0 to features - 1 do
      avg.(f) <- avg.(f) /. float_of_int copies
    done;
    Array.iter (fun w -> Array.blit avg 0 w 0 features) model.weights
  end;
  Workload_result.v ~label:"sgd-gradient" ~makespan_ns:makespan
    ~work_items:(Dataset.bytes data)

let predict_accuracy model data =
  let features = data.Dataset.features in
  let weights = model.weights.(0) in
  let correct = ref 0 in
  for s = 0 to data.Dataset.samples - 1 do
    let z = dot weights data.Dataset.rows (Dataset.row_offset data s) features in
    let predicted = if z >= 0.0 then 1.0 else -1.0 in
    if predicted = data.Dataset.labels.(s) then incr correct
  done;
  float_of_int !correct /. float_of_int data.Dataset.samples
