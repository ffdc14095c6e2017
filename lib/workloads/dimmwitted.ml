type outcome = {
  strategy : string;
  loss_gbps : float;
  gradient_gbps : float;
  final_loss : float;
  accuracy : float;
}

(* gradient passes between the initial and final loss evaluations *)
let epochs = 2

let run env ~replica ?grain data =
  let model = Sgd.make_model env ~replica ~features:data.Dataset.features in
  let loss_time = ref 0.0 and loss_bytes = ref 0 in
  let grad_time = ref 0.0 and grad_bytes = ref 0 in
  let final_loss = ref infinity in
  for _ = 1 to epochs do
    let _loss, lres = Sgd.loss_epoch env ?grain model data in
    loss_time := !loss_time +. lres.Workload_result.makespan_ns;
    loss_bytes := !loss_bytes + lres.Workload_result.work_items;
    let gres = Sgd.gradient_epoch env ?grain model data in
    grad_time := !grad_time +. gres.Workload_result.makespan_ns;
    grad_bytes := !grad_bytes + gres.Workload_result.work_items
  done;
  let loss, lres = Sgd.loss_epoch env ?grain model data in
  loss_time := !loss_time +. lres.Workload_result.makespan_ns;
  loss_bytes := !loss_bytes + lres.Workload_result.work_items;
  final_loss := loss;
  {
    strategy = Sgd.replica_to_string replica;
    loss_gbps =
      (if !loss_time > 0.0 then float_of_int !loss_bytes /. !loss_time else 0.0);
    gradient_gbps =
      (if !grad_time > 0.0 then float_of_int !grad_bytes /. !grad_time else 0.0);
    final_loss = !final_loss;
    accuracy = Sgd.predict_accuracy model data;
  }

let pp ppf o =
  Format.fprintf ppf "%s: loss %.2f GB/s, gradient %.2f GB/s, loss=%.4f acc=%.3f"
    o.strategy o.loss_gbps o.gradient_gbps o.final_loss o.accuracy
