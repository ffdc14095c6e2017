(* The bench row format: [bench check]'s gates on fixture baseline/run
   pairs, every committed core, taskgraph and power row with a spec
   replaying from it, the fault bench's spec, and the paper figures' rows
   as replayable experiments. *)

open Charm_bench

let schemas = [ Core_bench.schema; Fleet_bench.schema; Taskgraph_bench.schema; Power_bench.schema ]

let old_rows =
  [
    {|{"experiment":"core","scenario":"batch","events":924374,"wall_s":0.0924499,"events_per_s":9.99865e+06,"makespan_us":2556.81}|};
    {|{"experiment":"fleet","policy":"charm","rate_per_tenant":4000,"shards":4,"p99_us":573.467,"events":4578457,"wall_s":0.942771}|};
    {|{"experiment":"fleet","verdict_charm_beats_blind":true}|};
    {|{"experiment":"taskgraph","mapper":"blind","rate_per_tenant":1000,"workers":8,"infer_p99_us":103419,"events":713680,"wall_s":0.09,"spec":"charm_serve -n 8"}|};
    {|{"experiment":"power","runtime":"capped","rate_per_tenant":3000,"workers":5,"graph_p99_us":1418.85,"avg_power_mw":1.2046,"events":757382,"wall_s":0.0987608}|};
  ]

let file rows = "{\"rows\":[\n" ^ String.concat ",\n" rows ^ "\n]}\n"

let replace ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "fixture has no %S" sub
    else if String.sub s i n = sub then String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

(* the exit code of [bench check OLD NEW] on two fixture files *)
let check_exit old new_ =
  let write s =
    let f = Filename.temp_file "bench" ".json" in
    Out_channel.with_open_bin f (fun oc -> output_string oc s);
    f
  in
  let o = write old and n = write new_ in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ o; n ])
    (fun () -> Row.check_files schemas o n)

let edited ~sub ~by = file (List.map (fun r -> if r = sub then by else r) old_rows)
let base = file old_rows

let test_passes () =
  Alcotest.(check int) "identical files" 0 (check_exit base base);
  Alcotest.(check int) "a row only in the new run" 0
    (check_exit base
       (file
          (old_rows
          @ [ {|{"experiment":"core","scenario":"extra","events":1,"wall_s":1,"events_per_s":1,"makespan_us":1}|} ])));
  Alcotest.(check int) "events/s 15% slower, power 15% higher, wall-clock doubled" 0
    (check_exit base
       (base
       |> replace ~sub:{|"events_per_s":9.99865e+06|} ~by:{|"events_per_s":8.5e+06|}
       |> replace ~sub:{|"avg_power_mw":1.2046|} ~by:{|"avg_power_mw":1.38|}
       |> replace ~sub:{|"wall_s":0.942771|} ~by:{|"wall_s":1.9|}))

let test_fails () =
  let fails what new_ = Alcotest.(check int) what 1 (check_exit base new_) in
  List.iter
    (fun (what, sub, by) -> fails what (replace ~sub ~by base))
    [
      ("core events off by one", {|"events":924374|}, {|"events":924375|});
      ("fleet events off by one", {|"events":4578457|}, {|"events":4578456|});
      ("taskgraph events off by one", {|"events":713680|}, {|"events":713681|});
      ("power events off by one", {|"events":757382|}, {|"events":757383|});
      ("core events/s -25%", {|"events_per_s":9.99865e+06|}, {|"events_per_s":7.4990e+06|});
      ("power avg_power_mw +25%", {|"avg_power_mw":1.2046|}, {|"avg_power_mw":1.50575|});
      ("verdict flipped to false", {|"verdict_charm_beats_blind":true|}, {|"verdict_charm_beats_blind":false|});
    ];
  List.iter
    (fun row -> fails "a row deleted" (file (List.filter (( <> ) row) old_rows)))
    old_rows;
  fails "a row whose key changed"
    (edited ~sub:(List.nth old_rows 0) ~by:(replace ~sub:"batch" ~by:"bulk" (List.nth old_rows 0)))

let test_unreadable () =
  Alcotest.(check int) "malformed file" 2 (check_exit base "{\"rows\":[{\"experiment\":}]}");
  Alcotest.(check int) "row of an experiment with no gates" 1
    (check_exit (file [ {|{"experiment":"fig7","x":1}|} ]) base)

(* the rows a bench run renders parse back to the same flat fields *)
let test_render_parses_back () =
  let r =
    Row.make Core_bench.schema ~spec:"charm_run -w 'a \"b\"'"
      [ ("scenario", Key (Str "batch")); ("events", Sim (Int 3)); ("wall_s", Host (Num 0.5)) ]
  in
  let v = Row.verdict Core_bench.schema "holds" false in
  Alcotest.(check bool) "flat fields" true
    (Row.parse_file (Row.to_json [ r; v ]) = [ Row.flat r; Row.flat v ]);
  Alcotest.check_raises "a row keyed unlike its schema"
    (Invalid_argument "Row.make: core row keyed by ") (fun () ->
      ignore (Row.make Core_bench.schema [ ("scenario", Sim (Str "batch")) ] : Row.t))

(* each committed taskgraph and power row's spec replays, through the
   path charm_serve runs, to the row's events, makespan and tenant p99 *)
let test_specs_replay () =
  List.iter
    (fun (file, tenant, p99) ->
      let rows = Row.parse_file (In_channel.with_open_bin file In_channel.input_all) in
      let specs = List.filter_map (fun r -> Option.map (fun s -> (r, s)) (List.assoc_opt "spec" r)) rows in
      Alcotest.(check bool) (file ^ " rows carry specs") true (List.length specs >= 3);
      List.iter
        (fun (r, spec) ->
          let spec = match spec with Row.Str s -> s | _ -> Alcotest.fail "spec is not a string" in
          let t = match Experiment.of_string spec with Ok t -> t | Error m -> Alcotest.fail m in
          let inst, report = Experiment.serve t in
          let tr =
            List.find (fun (tr : Serving.Server.tenant_report) -> tr.tenant = tenant) report.tenant_reports
          in
          let field k = Row.value_json (List.assoc k r) in
          let num f = Row.value_json (Num f) in
          Alcotest.(check string) (spec ^ ": events") (field "events")
            (string_of_int (Engine.Stats.sim_events inst.Harness.Systems.machine));
          Alcotest.(check string) (spec ^ ": makespan") (field "makespan_us") (num (report.makespan_ns /. 1e3));
          Alcotest.(check string) (spec ^ ": p99") (field p99) (num (Serving.Histogram.p99 tr.latency /. 1e3)))
        specs)
    [ ("../BENCH_taskgraph.json", "infer", "infer_p99_us"); ("../BENCH_power.json", "graph", "graph_p99_us") ]

(* the core bench's serve and fleet rows replay, through the path
   charm_serve runs, to the row's exact event count *)
let test_core_specs_replay () =
  let rows = Row.parse_file (In_channel.with_open_bin "../BENCH_core.json" In_channel.input_all) in
  let replayed =
    List.filter_map
      (fun r ->
        match List.assoc_opt "spec" r with
        | Some (Row.Str spec) ->
            let t = match Experiment.of_string spec with Ok t -> t | Error m -> Alcotest.fail m in
            Alcotest.(check string) (spec ^ ": events")
              (Row.value_json (List.assoc "events" r))
              (string_of_int (Experiment.run t).sim_events);
            Some (List.assoc "scenario" r)
        | _ -> None)
      rows
  in
  Alcotest.(check bool) "serve and fleet rows carry specs" true (replayed = [ Row.Str "serve"; Row.Str "fleet" ])

(* the fault bench's line carries the chiplet-0 meltdown at 3 ms, exactly *)
let test_fault_spec () =
  let module S = Harness.Systems in
  let line = Experiment.to_string (Fault.experiment S.Charm) in
  let t = match Experiment.of_string line with Ok t -> t | Error m -> Alcotest.fail m in
  let topo = S.topology S.Amd_milan ~cache_scale:16 in
  Alcotest.(check bool) (line ^ ": Milan at cache scale 16") true (t.machine = S.Amd_milan && t.cache_scale = 16);
  Alcotest.(check bool) (line ^ ": meltdown") true
    (t.faults = [ (0, Faults.Schedule.chiplet_meltdown ~topo ~at_us:3000.0) ])

(* -- figure rows -------------------------------------------------------- *)

let spec_figures = [ Fig1.run; Fig7.run; Fig8.run; Fig9.run; Fig9.run_tab2; Fig10.run; Tab1.run; Fig14.run ]

(* every experiment the spec-built figures run, listed by a stub runner
   that answers each with one small run's outcome *)
let figure_experiments () =
  let canned = Experiment.run (Util.experiment "charm_run -w gups -n 2 --graph-scale 4") in
  let seen = ref [] in
  let real = !Util.runner in
  (Util.runner :=
     fun t ->
       seen := t :: !seen;
       { canned with value = 1.0 });
  Fun.protect ~finally:(fun () -> Util.runner := real) (fun () -> List.iter (fun run -> run ()) spec_figures);
  List.rev !seen

let test_figure_specs_roundtrip () =
  let ts = figure_experiments () in
  Alcotest.(check int) "runs in the eight figures" 483 (List.length ts);
  List.iter
    (fun t ->
      let line = Experiment.to_string t in
      Alcotest.(check bool) line true (Experiment.of_string line = Ok t))
    ts

(* one small row per kernel kind, run by the bench runner, replays from
   its spec string to the row's value and event count *)
let test_rows_replay () =
  let module S = Harness.Systems in
  let rows =
    Experiment.
      [
        { (Util.batch Bfs S.Charm ~workers:16) with graph_scale = 10 };
        { (Util.batch Gups S.Ring ~workers:16) with graph_scale = 10 };
        Util.batch ~cache_scale:Fig9.cache_scale Streamcluster S.Shoal ~workers:16;
        Util.batch Sgd S.Dw_native ~workers:16;
        Util.batch ~cache_scale:32 Ycsb S.Local_cache ~workers:8;
      ]
  in
  Util.json_sink := Some "rows.json";
  Fun.protect
    ~finally:(fun () ->
      Util.json_sink := None;
      Util.json_rows := [])
    (fun () ->
      List.iter
        (fun t ->
          Util.json_rows := [];
          ignore (Util.run "replay" t : Experiment.outcome);
          match !Util.json_rows with
          | [ { Row.spec = Some spec; fields; _ } ] ->
              let replay =
                match Experiment.of_string spec with Ok t -> Experiment.run t | Error m -> Alcotest.fail m
              in
              let sim k = match List.assoc_opt k fields with Some (Row.Sim v) -> v | _ -> Alcotest.failf "%s: no %s" spec k in
              Alcotest.(check bool) (spec ^ ": events") true (sim "events" = Int replay.sim_events);
              Alcotest.(check bool) (spec ^ ": value") true (sim "value" = Num replay.value)
          | _ -> Alcotest.fail "want one row with a spec")
        rows)

(* the Kronecker edge list a graph kernel reuses gives the run a freshly
   generated one gives *)
let test_graph_memo () =
  let run line =
    let o = Experiment.run (Util.experiment line) in
    (o.report, o.result, o.sim_events)
  in
  List.iter
    (fun k ->
      let line = Printf.sprintf "charm_run -w %s -n 8 --graph-scale 8" k in
      ignore (run "charm_run -w bfs -n 8 --graph-scale 7");
      let cold = run line in
      Alcotest.(check bool) (line ^ ": warm = cold") true (run line = cold))
    [ "bfs"; "sssp"; "pr" ]

(* every system and preset machine is printed under the name the CLI
   parses: in charm_run's [system=] header and in a figure row's
   "system" key *)
let test_printed_names_parse_back () =
  let module S = Harness.Systems in
  let parsed line = match Experiment.of_string line with Ok t -> t | Error m -> Alcotest.failf "%s: %s" line m in
  (* one tiny run's report and its row's "system" key *)
  let run_row t =
    Util.json_sink := Some "rows.json";
    Util.json_rows := [];
    Fun.protect
      ~finally:(fun () ->
        Util.json_sink := None;
        Util.json_rows := [])
      (fun () ->
        let o = Util.run "names" t in
        match !Util.json_rows with
        | [ { Row.fields; _ } ] -> (o.Experiment.report, List.assoc "system" fields)
        | _ -> Alcotest.fail "want one row")
  in
  List.iter
    (fun sys ->
      let report, row_name = run_row { (parsed "charm_run -w gups -m amd1s -n 2 --graph-scale 1") with sys } in
      let name =
        match String.split_on_char ' ' report with
        | w :: _ when String.starts_with ~prefix:"system=" w -> String.sub w 7 (String.length w - 7)
        | _ -> Alcotest.failf "no system= header: %s" report
      in
      Alcotest.(check bool) (name ^ ": the row's name") true (row_name = Row.Key (Str name));
      Alcotest.(check bool) (name ^ " parses back") true ((parsed ("charm_run -s " ^ name)).sys = sys))
    S.[ Charm; Charm_os_threads; Ring; Dw_native; Shoal; Asymsched; Sam; Os_default; Local_cache; Distributed_cache ];
  List.iter
    (fun machine ->
      let name = S.machine_name machine in
      Alcotest.(check bool) (name ^ " parses back") true ((parsed ("charm_run -m " ^ name)).machine = machine))
    S.[ Amd_milan; Amd_milan_1s; Intel_spr ]

(* the taskgraph bench keeps tiny-hetero.topo inline so it runs from any
   directory; the two copies must describe one machine *)
let test_hetero_copy_matches_file () =
  match
    ( Chipsim.Topology.of_string Taskgraph_bench.hetero_topology,
      Chipsim.Topology.of_file "../examples/topologies/tiny-hetero.topo" )
  with
  | Ok inline, Ok file ->
      Alcotest.(check bool) "inline spec = tiny-hetero.topo" true (inline = file)
  | Error m, _ | _, Error m -> Alcotest.fail m

let () =
  Alcotest.run "bench"
    [
      ( "check",
        [
          Alcotest.test_case "passing pairs exit 0" `Quick test_passes;
          Alcotest.test_case "each gate failure exits 1" `Quick test_fails;
          Alcotest.test_case "unreadable input" `Quick test_unreadable;
          Alcotest.test_case "rows render and parse back" `Quick test_render_parses_back;
        ] );
      ( "rows",
        [
          Alcotest.test_case "committed specs replay" `Quick test_specs_replay;
          Alcotest.test_case "core serve and fleet rows replay" `Quick test_core_specs_replay;
          Alcotest.test_case "fault bench spec" `Quick test_fault_spec;
        ] );
      ( "figures",
        [
          Alcotest.test_case "every row's spec round-trips" `Quick test_figure_specs_roundtrip;
          Alcotest.test_case "rows replay from their specs" `Quick test_rows_replay;
          Alcotest.test_case "a reused graph runs as a fresh one" `Quick test_graph_memo;
          Alcotest.test_case "printed names parse back" `Quick test_printed_names_parse_back;
          Alcotest.test_case "inline hetero machine is the file's" `Quick test_hetero_copy_matches_file;
        ] );
    ]
