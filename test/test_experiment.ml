(* The experiment spec: its text form round-trips, a printed repro runs
   the very experiment the fuzzer ran, both binaries' defaults, and
   one-line rejection of every malformed flag value and of every flag
   given outside its branch. *)

module Scenario = Check.Scenario
module E = Experiment

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let of_string_exn line =
  match E.of_string line with
  | Ok t -> t
  | Error msg -> Alcotest.failf "%s\nrejected: %s" line msg

let test_text_roundtrip () =
  List.iter
    (fun (mode, seeds) ->
      for seed = 0 to seeds - 1 do
        let t = Scenario.generate ~mode ~seed in
        let line = E.to_string t in
        if of_string_exn line <> t then
          Alcotest.failf "seed %d: %s parses back to a different experiment" seed line
      done)
    [ (Scenario.Smoke, 200); (Scenario.Deep, 50) ]

(* the repro path is what a user pastes: the report must match the
   fuzzer's own byte for byte (seed 21 is an all-little custom machine
   with random faults and a power cap) *)
(* one flag of each home but the common one, with a value its own
   branch accepts *)
let batch_flags = [ "-q 3" ]

let serve_flags =
  [
    "--rate 100"; "--jobs 3"; "--max-inflight 2"; "--queue-bound 3"; "--slo-factor 2";
    "--closed-loop 2"; "--think-us 9"; "--tenant a:1:bfs"; "--replicate graph:2";
    "--dag-mapper blind";
  ]

let fleet_flags =
  [
    "--router ewma"; "--epoch-us 100"; "--shard-machines intel"; "--diurnal 0.5";
    "--diurnal-period-us 100"; "--no-relocation";
  ]

(* the flags of the homes [t]'s branch is not: appended to its line, each
   must fail in one line that names it *)
let outside_flags (t : E.t) =
  match t.workload with
  | E.Batch (E.Tpch _) -> serve_flags @ fleet_flags
  | E.Batch _ -> batch_flags @ serve_flags @ fleet_flags
  | E.Serve _ -> batch_flags @ ("--think-us 9" :: fleet_flags)
  | E.Fleet _ -> batch_flags @ [ "--think-us 9" ]

let check_rejected line flag =
  let name = List.hd (String.split_on_char ' ' flag) in
  match E.of_string (line ^ " " ^ flag) with
  | Ok _ -> Alcotest.failf "%s\naccepted %s, which its run does not read" line flag
  | Error msg ->
      if String.contains msg '\n' || not (contains msg (name ^ " applies only to")) then
        Alcotest.failf "%s %s: the error does not name %s in one line: %S" line flag name msg

let test_outside_flags_rejected () =
  List.iter
    (fun (mode, seeds) ->
      for seed = 0 to seeds - 1 do
        let t = Scenario.generate ~mode ~seed in
        let line = E.to_string t in
        if E.of_string line <> Ok t then
          Alcotest.failf "seed %d: %s parses back to a different experiment" seed line;
        List.iter (check_rejected line) (outside_flags t)
      done)
    [ (Scenario.Smoke, 200); (Scenario.Deep, 50) ];
  (* the generator draws no closed loop: one by hand, whose spec prints
     its think time and no rate *)
  let line = "charm_serve --closed-loop 2 --think-us 7" in
  let t = of_string_exn line in
  Alcotest.(check bool) "a closed loop" true
    (match t.E.workload with
    | E.Serve { arrival = E.Closed_loop { clients = 2; think_us = 7.0 }; _ } -> true
    | _ -> false);
  let printed = E.to_string t in
  Alcotest.(check bool) "round-trips" true (E.of_string printed = Ok t);
  Alcotest.(check bool) ("no --rate in " ^ printed) false
    (List.mem "--rate" (String.split_on_char ' ' printed));
  check_rejected printed "--rate 100";
  (* a flag typed as an unambiguous prefix is named in full *)
  List.iter
    (fun (line, message) ->
      match E.of_string line with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error msg -> Alcotest.(check string) line message msg)
    [
      ("charm_serve --rou ewma", "charm_serve: --router applies only to a fleet (--fleet N)");
      ("charm_run --ra=9", "charm_run: --rate applies only to serving (-w serve)");
      ( "charm_serve --closed-loop 2 --ra 9",
        "charm_serve: --rate applies only to an open loop (no --closed-loop)" );
      ( "charm_serve --thi 9",
        "charm_serve: --think-us applies only to a closed loop (--closed-loop N)" );
    ]

let test_repro_replays_fuzzer_report () =
  let replayed = ref 0 in
  for seed = 0 to 40 do
    let t = Scenario.generate ~mode:Scenario.Smoke ~seed in
    match t.E.workload with
    | E.Batch _ -> ()
    | E.Serve _ | E.Fleet _ ->
        incr replayed;
        let fuzzer = (Scenario.run t).E.report in
        let repro = (E.run (of_string_exn (E.to_string t))).E.report in
        if fuzzer <> repro then
          Alcotest.failf "seed %d: the repro's report differs from the fuzzer's\n%s" seed
            (E.to_string t)
  done;
  Alcotest.(check bool) "serve and fleet experiments replayed" true (!replayed >= 10)

let test_defaults () =
  let run = of_string_exn "charm_run" and serve = of_string_exn "charm_serve" in
  Alcotest.(check (list int)) "charm_run workers, graph scale" [ 64; 13 ]
    [ run.E.workers; run.E.graph_scale ];
  Alcotest.(check (option int)) "charm_run has no seed" None run.E.seed;
  Alcotest.(check bool) "charm_run runs bfs" true
    (run.E.workload = E.Batch E.Bfs);
  Alcotest.(check (list int)) "charm_serve workers, graph scale" [ 32; 10 ]
    [ serve.E.workers; serve.E.graph_scale ];
  Alcotest.(check (option int)) "charm_serve seed" (Some 42) serve.E.seed;
  Alcotest.(check bool) "charm_serve serves the default mix" true
    (serve.E.workload = E.Serve E.default_serve);
  (* one flag table: either binary runs the other's workload *)
  Alcotest.(check bool) "charm_run -w serve" true
    ((of_string_exn "charm_run -w serve").E.workload = E.Serve E.default_serve);
  Alcotest.(check string) "a default run prints compactly"
    "charm_serve -s charm -m amd -n 32 --cache-scale 16 --rate 5000 --jobs 40 --seed 42 \
     --max-inflight 4 --queue-bound 64 --graph-scale 10"
    (E.to_string serve)

let test_plant_is_part_of_the_spec () =
  let t =
    of_string_exn
      "charm_serve -m amd1s -n 2 --rate 15000 --jobs 1 --seed 1 --max-inflight 1 \
       --queue-bound 1 --graph-scale 5 --tenant gold:1:bfs --check \
       --faults 0:plant:skip-ready-clamp"
  in
  let planted = [ { Faults.Schedule.at_ns = 0.0; kind = Faults.Schedule.Plant Chipsim.Invariant.Skip_ready_clamp } ] in
  Alcotest.(check bool) "plant parsed as a fault event" true (t.E.faults = [ (0, planted) ]);
  Alcotest.(check bool) "and printed" true (of_string_exn (E.to_string t) = t);
  (* the spec's one-job serve as a server config, to run on instances of
     its own *)
  let make faults =
    Harness.Systems.make ~cache_scale:16 ~faults Harness.Systems.Charm
      Harness.Systems.Amd_milan_1s ~n_workers:2 ()
  in
  let base = Serving.Server.default_config ~seed:1 in
  let cfg =
    {
      base with
      Serving.Server.tenants =
        [
          {
            Serving.Server.name = "gold";
            weight = 1.0;
            slo_factor = 3.0;
            process = Serving.Arrivals.Open_loop { rate_per_s = 15000.0 };
            jobs = 1;
            mix = [ (Serving.Job.Bfs, 1) ];
            replicas = 1;
          };
        ];
      admission = { Serving.Admission.max_queue_per_tenant = 1; max_global_queue = 2 };
      max_inflight = 1;
      data = { Serving.Job.graph_scale = 5; dag_comm_aware = true; seed = 2 };
      check = true;
    }
  in
  let caught what f =
    match f () with
    | _ -> Alcotest.failf "%s: planted skip-ready-clamp was not caught" what
    | exception Chipsim.Invariant.Violation _ -> ()
  in
  (* an honest instance built before the planted run and run after it
     still runs honest code: the plant is the planted machine's state *)
  let honest = make [] in
  caught "the spec" (fun () -> E.run t);
  caught "the server config on a planted instance" (fun () -> Serving.Server.run (make planted) cfg);
  ignore (Serving.Server.run honest cfg : Serving.Server.report)

(* every malformed value fails with one line, never an exception *)
let test_malformed_values_rejected () =
  List.iter
    (fun args ->
      match E.of_string ("charm_serve " ^ args) with
      | Ok _ -> Alcotest.failf "accepted %s" args
      | Error msg ->
          if String.contains msg '\n' || msg = "" then
            Alcotest.failf "%s: error is not one line: %S" args msg)
    [
      "-s frob"; "-m frob"; "--topology 'sockets 1; frobnicate 2'"; "-n x";
      "--cache-scale x"; "-w frob"; "-q x"; "--graph-scale x"; "--seed x";
      "--energy-weight nan"; "--power-cap -1"; "--faults 1:frob:2";
      "--faults-shard x:1:core-off:0"; "--faults 0:plant:frob"; "--plant frob"; "--rate x"; "--rate 0";
      "--jobs x"; "--max-inflight x"; "--queue-bound x"; "--slo-factor x";
      "--closed-loop x"; "--closed-loop 0"; "--think-us x"; "--tenant bad"; "--replicate graph";
      "--replicate nobody:2"; "--dag-mapper frob"; "--fleet x"; "--router frob";
      "--epoch-us x"; "--shard-machines amd,xeon"; "--diurnal x";
      "--diurnal-period-us x"; "--fleet 2 --faults-shard 5:1:core-off:0";
      "--fleet 2 --energy"; "--fleet 2 --closed-loop 2"; "-w bfs --fleet 2";
      "--bogus"; "--graph-scale 0"; "--graph-scale 21"; "--graph-scale 40";
      "--fleet 65"; "--fleet=-1"; "--cache-scale 0";
      (* admission bounds, SLO factors and think times that no run honours *)
      "--queue-bound 0"; "--queue-bound -1"; "--queue-bound=-1"; "--slo-factor 0";
      "--slo-factor -1"; "--slo-factor=-1"; "--think-us -1"; "--think-us=-1";
      (* every float flag is finite *)
      "--rate nan"; "--rate inf"; "--rate 1e400"; "--slo-factor nan";
      "--think-us inf"; "--epoch-us inf"; "--diurnal nan";
      "--diurnal-period-us=-inf"; "--energy-weight=-inf"; "--power-cap inf";
      (* counts, queries and fleet knobs outside what the run can honour *)
      "-n 0"; "--jobs 0"; "--max-inflight 0"; "-w tpch -q 0"; "-w tpch -q 23"; "--rate=-5";
      "--energy-weight=-1"; "--fleet 2 --epoch-us 0"; "--fleet 2 --diurnal 2";
      "--fleet 2 --diurnal=-0.5"; "--fleet 2 --diurnal-period-us 0";
      (* a flag outside its branch *)
      "-q 3"; "-w bfs -q 3"; "-w gups --rate 100"; "--router ewma"; "--fleet 0 --router ewma";
      "--no-relocation"; "--think-us 9"; "--closed-loop 2 --rate 100";
    ];
  (* a malformed tenant, replication, shard-machine or shard-fault spec
     says what is wrong with it *)
  List.iter
    (fun (args, frag) ->
      match E.of_string ("charm_serve " ^ args) with
      | Ok _ -> Alcotest.failf "accepted %s" args
      | Error msg ->
          if not (contains msg frag) then Alcotest.failf "%s: %S does not mention %S" args msg frag)
    [
      ("--tenant ''", "want NAME:WEIGHT:KIND");
      ("--tenant gold", "want NAME:WEIGHT:KIND");
      ("--tenant gold:x:bfs", "weight");
      ("--tenant gold:-1:bfs", "positive");
      ("--tenant gold:nan:bfs", "positive");
      ("--tenant gold:2:", "job-kind list");
      ("--tenant gold:2:bfs+", "job-kind list");
      ("--tenant gold:2:bfs+frob", "frob");
      ("--replicate ''", "want NAME:DEGREE");
      ("--replicate gold", "want NAME:DEGREE");
      ("--replicate gold:", "want NAME:DEGREE");
      ("--replicate :3", "want NAME:DEGREE");
      ("--replicate gold:x", "not an integer");
      ("--replicate gold:0", ">= 1");
      (* the degree is the last ':' field: [a:b] is a (missing) tenant *)
      ("--replicate a:b:2", "names no tenant");
      ("--fleet 2 --shard-machines ''", "empty");
      ("--fleet 2 --shard-machines amd,xeon", "xeon");
      ("--fleet 2 --faults-shard membw", "want SHARD:SPEC");
      ("--fleet 2 --faults-shard :membw", "want SHARD:SPEC");
      ("--fleet 2 --faults-shard x:membw", "integer");
      ("--fleet 2 --faults-shard=-1:membw", ">= 0");
    ];
  (* the bounds themselves are accepted *)
  List.iter
    (fun line ->
      match E.of_string line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "rejected %s: %s" line msg)
    [
      "charm_run -w gups --graph-scale 20"; "charm_serve --fleet 64 --cache-scale 4096";
      "charm_serve --queue-bound 1 --slo-factor 0.001 --closed-loop 1 --think-us 0";
      "charm_run -w tpch -q 1 -n 1"; "charm_run -w tpch -q 22";
      "charm_serve --fleet 2 --epoch-us 0.5 --diurnal 1 --diurnal-period-us 1";
      "charm_serve --fleet 2 --diurnal 0 --jobs 1 --max-inflight 1";
    ]

(* a negative number after a flag is that flag's value, never an option:
   a negative seed's printed line replays, and a bounded flag given a
   negative value says which flag rejected it *)
let test_negative_values () =
  let t = of_string_exn "charm_run -w gups -n 2 --graph-scale 4 --seed=-5" in
  Alcotest.(check (option int)) "seed" (Some (-5)) t.E.seed;
  let line = E.to_string t in
  Alcotest.(check bool) (line ^ " spells --seed -5") true (contains line "--seed -5");
  if E.of_string line <> Ok t then Alcotest.failf "%s does not parse back" line;
  List.iter
    (fun (args, flag) ->
      match E.of_string ("charm_serve " ^ args) with
      | Ok _ -> Alcotest.failf "accepted %s" args
      | Error msg ->
          if String.contains msg '\n' || not (contains msg ("'" ^ flag ^ "'")) then
            Alcotest.failf "%s: the error does not name %s in one line: %S" args flag msg)
    [
      ("--power-cap -1", "--power-cap"); ("--think-us -1", "--think-us");
      ("--closed-loop 2 --think-us -1", "--think-us"); ("--slo-factor -1", "--slo-factor");
      ("--queue-bound -1", "--queue-bound"); ("-n -1", "-n"); ("-s -1", "-s");
    ]

(* two tenants under one name would share one set of metrics; the
   parser refuses the spec, in one line naming the tenant *)
let test_repeated_tenant_rejected () =
  (match E.of_string "charm_serve --tenant a:1:bfs --tenant b:1:gups:64 --tenant a:2:bfs" with
  | Ok _ -> Alcotest.fail "a repeated tenant name was accepted"
  | Error msg ->
      Alcotest.(check string) "the error"
        "charm_serve: --tenant a is given twice; tenant names must be distinct" msg);
  ignore (of_string_exn "charm_serve --tenant a:1:bfs --tenant b:1:bfs" : E.t)

(* a machine loaded from a topology file keeps its name through the text
   form, so a fleet report (which names each shard's machine) replays
   byte for byte *)
let test_topo_file_name_replays () =
  let t =
    of_string_exn
      "charm_serve --fleet 2 -n 4 --jobs 4 --graph-scale 6 --shard-machines \
       ../examples/topologies/tiny-hetero.topo"
  in
  let replay = of_string_exn (E.to_string t) in
  Alcotest.(check bool) "the spec round-trips" true (replay = t);
  let report = (E.run t).E.report in
  Alcotest.(check bool) "shards named after the file" true (contains report {|"tiny-hetero"|});
  Alcotest.(check string) "the replay's report" report (E.run replay).E.report

(* --check audits the power cap at the end of a run: a capped, checked
   batch run and serve run both finish clean *)
let test_checked_capped_runs () =
  List.iter
    (fun line ->
      let t = of_string_exn line in
      Alcotest.(check bool) "checked and capped" true (t.E.check && t.E.power_cap_mw > 0.0);
      match E.run t with
      | _ -> ()
      | exception Chipsim.Invariant.Violation msg -> Alcotest.failf "%s\n%s" line msg)
    [
      "charm_run -n 8 --graph-scale 8 --power-cap 2 --check";
      "charm_serve -n 8 --jobs 6 --power-cap 2 --check";
    ]

(* --check audits each graph kernel against its sequential reference:
   the true results pass and a result with one entry corrupted fails *)
let test_kernel_audit () =
  let t = of_string_exn "charm_run -n 4 --graph-scale 7 --check" in
  let env () =
    (Harness.Systems.make Harness.Systems.Charm Harness.Systems.Amd_milan ~n_workers:4 ())
      .Harness.Systems.env
  in
  let graph ~weighted =
    let e = env () in
    (e, E.kernel_graph e t ~weighted)
  in
  let cases =
    let e, g = graph ~weighted:false in
    let source = Workloads.Csr.default_source g in
    let levels = fst (Workloads.Bfs.run e g ~source) in
    let ranks = fst (Workloads.Pagerank.run (env ()) g ()) in
    let labels = fst (Workloads.Concomp.run (env ()) g) in
    let ew, gw = graph ~weighted:true in
    let dist = fst (Workloads.Sssp.run ew gw ~source:(Workloads.Csr.default_source gw)) in
    (* one entry changed: the source's *)
    let corrupt f a =
      let a = Array.copy a in
      a.(source) <- f a.(source);
      a
    in
    [
      ("bfs", g, E.Levels levels, E.Levels (corrupt succ levels));
      ("pagerank", g, E.Ranks ranks, E.Ranks (corrupt (( *. ) 1.001) ranks));
      (* the source moved into a component of its own *)
      ("cc", g, E.Labels labels, E.Labels (corrupt (fun _ -> -1) labels));
      ("sssp", gw, E.Distances dist, E.Distances (corrupt succ dist));
    ]
  in
  List.iter
    (fun (name, g, good, bad) ->
      (match E.audit g good with
      | () -> ()
      | exception Chipsim.Invariant.Violation msg -> Alcotest.failf "%s: true result rejected: %s" name msg);
      match E.audit g bad with
      | () -> Alcotest.failf "%s: a corrupted result passed the audit" name
      | exception Chipsim.Invariant.Violation msg ->
          if not (String.starts_with ~prefix:("kernel." ^ name ^ ":") msg) then
            Alcotest.failf "%s: the violation names another check: %s" name msg)
    cases;
  (* and a checked run of each kernel passes *)
  List.iter
    (fun w ->
      let line = "charm_run -n 4 --graph-scale 7 --check -w " ^ w in
      match E.run (of_string_exn line) with
      | _ -> ()
      | exception Chipsim.Invariant.Violation msg -> Alcotest.failf "%s\n%s" line msg)
    [ "bfs"; "pr"; "cc"; "sssp" ]

let suite =
  [
    Alcotest.test_case "text form round-trips" `Quick test_text_roundtrip;
    Alcotest.test_case "repro replays the fuzzer's report" `Slow
      test_repro_replays_fuzzer_report;
    Alcotest.test_case "per-binary defaults" `Quick test_defaults;
    Alcotest.test_case "a flag outside its branch is rejected" `Quick test_outside_flags_rejected;
    Alcotest.test_case "plant is part of the spec" `Quick test_plant_is_part_of_the_spec;
    Alcotest.test_case "malformed values rejected in one line" `Quick
      test_malformed_values_rejected;
    Alcotest.test_case "a negative value belongs to its flag" `Quick test_negative_values;
    Alcotest.test_case "a repeated tenant name is rejected" `Quick test_repeated_tenant_rejected;
    Alcotest.test_case "a topology file's name replays" `Quick test_topo_file_name_replays;
    Alcotest.test_case "checked capped runs pass" `Quick test_checked_capped_runs;
    Alcotest.test_case "a corrupted kernel result fails --check" `Quick test_kernel_audit;
  ]
