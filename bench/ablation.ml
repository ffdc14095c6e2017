(* §4.6 sensitivity analysis + the DESIGN.md ablations: threshold sweep,
   timer sweep, approach comparison, chiplet-first stealing, the
   centralized arbiter, and profiling on/off.  The paper picks
   RMT_CHIP_ACCESS_RATE = 300 per timer interval as the best balance. *)

module Sys_ = Harness.Systems

(* a figure-scale BFS or GUPS run under a custom CHARM config, which no
   spec describes *)
let run_with_config config kernel ~workers =
  let t = Util.batch kernel Sys_.Charm ~workers in
  let inst = Sys_.make ~cache_scale:t.cache_scale ~charm_config:config Sys_.Charm t.machine ~n_workers:workers () in
  Util.attach_trace inst;
  let env = inst.Sys_.env in
  let open Workloads in
  let result =
    match kernel with
    | Experiment.Bfs ->
        let g = Experiment.kernel_graph env t ~weighted:false in
        snd (Bfs.run env g ~source:(Csr.default_source g))
    | Experiment.Gups -> Gups.run env { Gups.table_words = 1 lsl 20; updates = 1 lsl 16; seed = 17 }
    | _ -> invalid_arg "ablation: only BFS and GUPS are swept"
  in
  Workload_result.throughput_per_s result

let threshold_sweep () =
  Util.subsection "RMT_CHIP_ACCESS_RATE sweep (events per timer, 32 cores)";
  Util.row "  %-10s %12s %12s\n" "threshold" "BFS" "GUPS";
  List.iter
    (fun threshold ->
      let config =
        { Charm.Config.default with Charm.Config.rmt_chip_access_rate = threshold }
      in
      Util.row "  %-10.0f %12s %12s\n" threshold
        (Util.pp_throughput (run_with_config config Experiment.Bfs ~workers:32))
        (Util.pp_throughput (run_with_config config Experiment.Gups ~workers:32)))
    [ 75.0; 150.0; 300.0; 600.0; 1200.0 ]

let timer_sweep () =
  Util.subsection "SCHEDULER_TIMER sweep (32 cores)";
  Util.row "  %-10s %12s %12s\n" "timer(us)" "BFS" "GUPS";
  List.iter
    (fun timer_us ->
      let config =
        {
          Charm.Config.default with
          Charm.Config.scheduler_timer_ns = timer_us *. 1000.0;
        }
      in
      Util.row "  %-10.1f %12s %12s\n" timer_us
        (Util.pp_throughput (run_with_config config Experiment.Bfs ~workers:32))
        (Util.pp_throughput (run_with_config config Experiment.Gups ~workers:32)))
    [ 12.5; 25.0; 50.0; 100.0; 200.0 ]

let approach_compare () =
  Util.subsection "controller approach (32 cores)";
  Util.row "  %-18s %12s %12s\n" "approach" "BFS" "GUPS";
  List.iter
    (fun approach ->
      let config = { Charm.Config.default with Charm.Config.approach } in
      Util.row "  %-18s %12s %12s\n"
        (Charm.Config.approach_to_string approach)
        (Util.pp_throughput (run_with_config config Experiment.Bfs ~workers:32))
        (Util.pp_throughput (run_with_config config Experiment.Gups ~workers:32)))
    [ Charm.Config.Location_centric; Charm.Config.Cache_centric; Charm.Config.Adaptive ]

(* A workload whose demands shift mid-run (paper 3, challenge 3): each of
   8 workers first re-scans a small private array (any placement fits),
   then a 2 MiB one.  Packed on one chiplet the second phase thrashes the
   shared slice; the adaptive policy spreads the gang so every worker gets
   its own slice. *)
let phased_scan config =
  let inst =
    Harness.Systems.make ~cache_scale:Util.base.cache_scale
      ~charm_config:config Harness.Systems.Charm (Util.machine Harness.Systems.Amd_milan)
      ~n_workers:8 ()
  in
  Util.attach_trace inst;
  let env = inst.Harness.Systems.env in
  let module Sched = Engine.Sched in
  let small_words = 1 lsl 12 and big_words = 1 lsl 18 in
  let regions =
    Array.init 8 (fun _ ->
        ( env.Workloads.Exec_env.alloc_shared ~elt_bytes:8 ~count:small_words,
          env.Workloads.Exec_env.alloc_shared ~elt_bytes:8 ~count:big_words ))
  in
  let passes = 6 in
  let makespan =
    Workloads.Exec_env.run env (fun ctx ->
        Engine.Par.all_do ctx (fun ctx' w ->
            let small, big = regions.(w) in
            for _ = 1 to passes do
              Sched.Ctx.read_range ctx' small ~lo:0 ~hi:small_words;
              Sched.Ctx.yield ctx'
            done;
            for _ = 1 to passes do
              Sched.Ctx.read_range ctx' big ~lo:0 ~hi:big_words;
              Sched.Ctx.yield ctx'
            done))
  in
  let lines = 8 * passes * ((small_words + big_words) / 8) in
  float_of_int lines /. (makespan /. 1e9)

let toggles () =
  Util.subsection "design toggles (BFS @32 cores; phase-shift scan @8 cores)";
  let show label config =
    Util.row "  %-34s %12s %12s\n" label
      (Util.pp_throughput (run_with_config config Experiment.Bfs ~workers:32))
      (Util.pp_throughput (phased_scan config))
  in
  Util.row "  %-34s %12s %12s\n" "" "BFS" "phased-scan";
  show "full CHARM" Charm.Config.default;
  show "random-victim stealing"
    { Charm.Config.default with Charm.Config.chiplet_first_steal = false };
  show "centralized arbiter (not decentr.)"
    { Charm.Config.default with Charm.Config.decentralized = false };
  show "profiling/adaptation off"
    { Charm.Config.default with Charm.Config.profile_while_running = false }

let run () =
  Util.section "Sensitivity + ablations (paper 4.6 and DESIGN.md)";
  threshold_sweep ();
  timer_sweep ();
  approach_compare ();
  toggles ()
