(* Golden determinism: identical configurations produce byte-identical
   reports and traces, with and without fault injection, for both the
   batch path and the serving loop. *)

module Systems = Harness.Systems

let batch_digest ~faults () =
  let inst =
    Systems.make ~cache_scale:16 Systems.Charm Systems.Amd_milan_1s
      ~n_workers:4 ()
  in
  let sched = inst.Systems.env.Workloads.Exec_env.sched in
  let tr = Engine.Trace.create () in
  Engine.Sched.set_trace sched (Some tr);
  if faults then begin
    let topo = Chipsim.Machine.topology inst.Systems.machine in
    ignore
      (Faults.Injector.attach sched
         (Faults.Schedule.random ~topo ~seed:11 ~n:4 ~horizon_us:500.0)
        : Faults.Injector.t)
  end;
  let params =
    { Workloads.Gups.default_params with Workloads.Gups.updates = 8192 }
  in
  ignore (Workloads.Gups.run inst.Systems.env params : Workloads.Workload_result.t);
  ( Format.asprintf "%a" Engine.Stats.pp (Systems.report inst),
    Engine.Trace.to_chrome_json [ tr ] )

let serve_digest ~faults () =
  let inst =
    Systems.make ~cache_scale:16 Systems.Charm Systems.Amd_milan_1s
      ~n_workers:4 ()
  in
  if faults then begin
    let topo = Chipsim.Machine.topology inst.Systems.machine in
    ignore
      (Faults.Injector.attach inst.Systems.env.Workloads.Exec_env.sched
         (Faults.Schedule.random ~topo ~seed:23 ~n:4 ~horizon_us:2000.0)
        : Faults.Injector.t)
  end;
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
