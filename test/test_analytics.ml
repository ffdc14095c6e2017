open Workloads

let env ?(workers = 8) () =
  let inst =
    Harness.Systems.make Harness.Systems.Charm Harness.Systems.Amd_milan
      ~n_workers:workers ()
  in
  inst.Harness.Systems.env

let data env_ =
  Dataset.generate
    ~alloc:(fun ~elt_bytes ~count -> env_.Exec_env.alloc_shared ~elt_bytes ~count)
    ~samples:256 ~features:64 ()

let test_dataset_shape () =
  let e = env () in
  let d = data e in
  Alcotest.(check int) "rows" (256 * 64) (Array.length d.Dataset.rows);
  Alcotest.(check int) "labels" 256 (Array.length d.Dataset.labels);
  Array.iter
    (fun l -> if l <> 1.0 && l <> -1.0 then Alcotest.fail "label not in {-1,1}")
    d.Dataset.labels;
  Alcotest.(check int) "bytes" (256 * 64 * 4) (Dataset.bytes d)

let test_loss_decreases () =
  let e = env () in
  let d = data e in
  let model = Sgd.make_model e ~replica:Sgd.Per_machine ~features:64 in
  let loss0, _ = Sgd.loss_epoch e model d in
  for _ = 1 to 3 do
    ignore (Sgd.gradient_epoch e model d : Workload_result.t)
  done;
  let loss1, _ = Sgd.loss_epoch e model d in
  Alcotest.(check bool) "loss decreased" true (loss1 < loss0);
  Alcotest.(check bool) "learned something" true (Sgd.predict_accuracy model d > 0.8)

let test_replica_counts () =
  let e = env ~workers:8 () in
  let per_core = Sgd.make_model e ~replica:Sgd.Per_core ~features:8 in
  Alcotest.(check int) "one per worker" 8 (Array.length per_core.Sgd.weights);
  let per_node = Sgd.make_model e ~replica:Sgd.Per_node ~features:8 in
  Alcotest.(check int) "one per socket" 2 (Array.length per_node.Sgd.weights);
  let per_machine = Sgd.make_model e ~replica:Sgd.Per_machine ~features:8 in
  Alcotest.(check int) "single" 1 (Array.length per_machine.Sgd.weights)

let test_owner_mapping () =
  let e = env ~workers:8 () in
  let m = Sgd.make_model e ~replica:Sgd.Per_core ~features:8 in
  Alcotest.(check int) "per-core owner" 5 (m.Sgd.owner_of_worker 5);
  let m2 = Sgd.make_model e ~replica:Sgd.Per_machine ~features:8 in
  Alcotest.(check int) "per-machine owner" 0 (m2.Sgd.owner_of_worker 5)

let test_dimmwitted_outcome () =
  let e = env () in
  let d = data e in
  let o = Dimmwitted.run e ~replica:Sgd.Per_node d in
  Alcotest.(check string) "strategy name" "per-node" o.Dimmwitted.strategy;
  Alcotest.(check bool) "loss gbps positive" true (o.Dimmwitted.loss_gbps > 0.0);
  Alcotest.(check bool) "gradient gbps positive" true (o.Dimmwitted.gradient_gbps > 0.0);
  Alcotest.(check bool) "accuracy sane" true
    (o.Dimmwitted.accuracy >= 0.0 && o.Dimmwitted.accuracy <= 1.0)

let test_model_averaging_syncs_replicas () =
  let e = env ~workers:4 () in
  let d = data e in
  let model = Sgd.make_model e ~replica:Sgd.Per_core ~features:64 in
  ignore (Sgd.gradient_epoch e model d : Workload_result.t);
  let w0 = model.Sgd.weights.(0) and w1 = model.Sgd.weights.(1) in
  Alcotest.(check bool) "replicas reconciled" true (w0 = w1)

let suite =
  [
    Alcotest.test_case "dataset shape" `Quick test_dataset_shape;
    Alcotest.test_case "sgd converges" `Quick test_loss_decreases;
    Alcotest.test_case "replica counts" `Quick test_replica_counts;
    Alcotest.test_case "owner mapping" `Quick test_owner_mapping;
    Alcotest.test_case "dimmwitted outcome" `Quick test_dimmwitted_outcome;
    Alcotest.test_case "model averaging syncs" `Quick test_model_averaging_syncs_replicas;
  ]
