(* The experiment spec: its text form round-trips, a printed repro runs
   the very experiment the fuzzer ran, both binaries' defaults, and
   one-line rejection of every malformed flag value. *)

module Scenario = Check.Scenario
module E = Experiment

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
    (run.E.workload = E.Batch { kernel = E.Bfs; query = None });
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
       --queue-bound 1 --graph-scale 5 --tenant gold:1:bfs --check --plant skip-ready-clamp"
  in
  Alcotest.(check bool) "plant parsed" true
    (t.E.plant = Some Chipsim.Invariant.Skip_ready_clamp);
  Alcotest.(check bool) "and printed" true (of_string_exn (E.to_string t) = t);
  (match E.run t with
  | _ -> Alcotest.fail "planted skip-ready-clamp was not caught"
  | exception Chipsim.Invariant.Violation _ -> ());
  Alcotest.(check bool) "the plant ends with the run" true (Chipsim.Invariant.plant () = None)

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
      "--faults-shard x:1:core-off:0"; "--plant frob"; "--rate x"; "--rate 0";
      "--jobs x"; "--max-inflight x"; "--queue-bound x"; "--slo-factor x";
      "--closed-loop x"; "--closed-loop 0"; "--think-us x"; "--tenant bad"; "--replicate graph";
      "--replicate nobody:2"; "--dag-mapper frob"; "--fleet x"; "--router frob";
      "--epoch-us x"; "--shard-machines amd,xeon"; "--diurnal x";
      "--diurnal-period-us x"; "--fleet 2 --faults-shard 5:1:core-off:0";
      "--fleet 2 --energy"; "--fleet 2 --closed-loop 2"; "-w bfs --fleet 2";
      "--bogus"; "--graph-scale 0"; "--graph-scale 21"; "--graph-scale 40";
      "--fleet 65"; "--fleet=-1"; "--cache-scale 0";
      (* every float flag is finite *)
      "--rate nan"; "--rate inf"; "--rate 1e400"; "--slo-factor nan";
      "--think-us inf"; "--epoch-us inf"; "--diurnal nan";
      "--diurnal-period-us=-inf"; "--energy-weight=-inf"; "--power-cap inf";
    ];
  (* the maxima themselves are accepted *)
  List.iter
    (fun line ->
      match E.of_string line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "rejected %s: %s" line msg)
    [ "charm_run -w gups --graph-scale 20"; "charm_serve --fleet 64 --cache-scale 4096" ]

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
  let contains sub =
    let n = String.length report and m = String.length sub in
    let rec go i = i + m <= n && (String.sub report i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "shards named after the file" true (contains {|"tiny-hetero"|});
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

let suite =
  [
    Alcotest.test_case "text form round-trips" `Quick test_text_roundtrip;
    Alcotest.test_case "repro replays the fuzzer's report" `Slow
      test_repro_replays_fuzzer_report;
    Alcotest.test_case "per-binary defaults" `Quick test_defaults;
    Alcotest.test_case "plant is part of the spec" `Quick test_plant_is_part_of_the_spec;
    Alcotest.test_case "malformed values rejected in one line" `Quick
      test_malformed_values_rejected;
    Alcotest.test_case "a repeated tenant name is rejected" `Quick test_repeated_tenant_rejected;
    Alcotest.test_case "a topology file's name replays" `Quick test_topo_file_name_replays;
    Alcotest.test_case "checked capped runs pass" `Quick test_checked_capped_runs;
  ]
