(* Golden determinism: identical configurations produce byte-identical
   reports and traces, with and without fault injection, for both the
   batch path and the serving loop. *)

module Systems = Harness.Systems

(* a CHARM instance on the one-socket machine, replaying a random
   schedule drawn from [faults_seed] when given *)
let instance ?faults_seed ~horizon_us () =
  let faults =
    Option.map
      (fun seed ->
        let topo = Systems.topology Systems.Amd_milan_1s ~cache_scale:16 in
        Faults.Schedule.random ~topo ~seed ~n:4 ~horizon_us)
      faults_seed
  in
  Systems.make ~cache_scale:16 ?faults Systems.Charm Systems.Amd_milan_1s ~n_workers:4 ()

let batch_digest ~faults () =
  let inst = instance ?faults_seed:(if faults then Some 11 else None) ~horizon_us:500.0 () in
  let tr = Engine.Trace.create () in
  Engine.Sched.set_trace inst.Systems.env.Workloads.Exec_env.sched (Some tr);
  let params =
    { Workloads.Gups.default_params with Workloads.Gups.updates = 8192 }
  in
  ignore (Workloads.Gups.run inst.Systems.env params : Workloads.Workload_result.t);
  ( Format.asprintf "%a" Engine.Stats.pp (Systems.report inst),
    Engine.Trace.to_chrome_json [ tr ] )

let serve_digest ~faults () =
  let inst = instance ?faults_seed:(if faults then Some 23 else None) ~horizon_us:2000.0 () in
  let tr = Engine.Trace.create () in
  let cfg = Serving.Server.default_config ~seed:42 in
  let cfg =
    {
      cfg with
      Serving.Server.trace = Some tr;
      check = true;
      tenants =
        List.map
          (fun t -> { t with Serving.Server.jobs = 6 })
          cfg.Serving.Server.tenants;
    }
  in
  let report = Serving.Server.run inst cfg in
  (Serving.Server.report_to_json report, Engine.Trace.to_chrome_json [ tr ])

let check_twice name digest =
  let r1, t1 = digest () in
  let r2, t2 = digest () in
  Alcotest.(check string) (name ^ ": report bytes") r1 r2;
  Alcotest.(check string) (name ^ ": trace bytes") t1 t2;
  Alcotest.(check bool) (name ^ ": trace nonempty") true (String.length t1 > 2)

let test_batch () = check_twice "gups" (batch_digest ~faults:false)
let test_batch_faults () = check_twice "gups+faults" (batch_digest ~faults:true)
let test_serve () = check_twice "serve" (serve_digest ~faults:false)
let test_serve_faults () = check_twice "serve+faults" (serve_digest ~faults:true)

let suite =
  [
    Alcotest.test_case "batch run byte-identical" `Quick test_batch;
    Alcotest.test_case "batch run with faults byte-identical" `Quick test_batch_faults;
    Alcotest.test_case "serve run byte-identical" `Quick test_serve;
    Alcotest.test_case "serve run with faults byte-identical" `Quick test_serve_faults;
  ]
