(* Bench driver: regenerates every table and figure of the paper's
   evaluation.  Run with no arguments for the full suite, or pass
   experiment names (fig1 fig3 fig4 fig5 fig7 tab1 fig8 fig9 tab2 fig10
   fig11 fig12 fig13 fig14 ablation serve fault fleet taskgraph power
   core) to run a subset.  [--json FILE] additionally writes
   machine-readable result rows for experiments that emit them (currently:
   fleet, taskgraph, power and core, whose committed baselines
   BENCH_fleet.json / BENCH_taskgraph.json / BENCH_power.json /
   BENCH_core.json CI diffs against). *)

let experiments =
  [
    ("fig3", Fig3.run);
    ("fig4", Fig4.run);
    ("fig5", Fig5.run);
    ("fig7", Fig7.run);
    ("tab1", Tab1.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("tab2", Fig9.run_tab2);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("fig14", Fig14.run);
    ("fig1", Fig1.run);
    ("ablation", Ablation.run);
    ("serve", Serve.run);
    ("fault", Fault.run);
    ("fleet", Fleet_bench.run);
    ("taskgraph", Taskgraph_bench.run);
    ("power", Power_bench.run);
    ("core", Core_bench.run);
  ]

let () =
  (* [--trace FILE] attaches one shared trace sink to every instance the
     requested experiments build and writes the Chrome-trace JSON at the
     end; remaining arguments select experiments *)
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split_trace acc = function
    | "--trace" :: file :: rest -> (Some file, List.rev_append acc rest)
    | a :: rest -> split_trace (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  (* [--json FILE] collects machine-readable result rows from every
     experiment that emits them and writes one JSON document at the end *)
  let rec split_json acc = function
    | "--json" :: file :: rest -> (Some file, List.rev_append acc rest)
    | a :: rest -> split_json (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  (* [--topology SPEC] re-runs the requested figures on a data-driven
     topology (file path or inline spec) instead of their preset machine *)
  let rec split_topology acc = function
    | "--topology" :: spec :: rest -> (Some spec, List.rev_append acc rest)
    | a :: rest -> split_topology (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let trace_file, args = split_trace [] args in
  let json_file, args = split_json [] args in
  let topology_spec, names = split_topology [] args in
  Util.json_sink := json_file;
  (match topology_spec with
  | None -> ()
  | Some spec -> (
      match Harness.Systems.custom_machine_of_spec spec with
      | Ok m -> Util.machine_override := Some m
      | Error msg ->
          Printf.eprintf "bench: bad --topology spec: %s\n" msg;
          exit 2));
  (match trace_file with
  | Some _ -> Util.trace_sink := Some (Engine.Trace.create ())
  | None -> ());
  let requested = match names with [] -> List.map fst experiments | _ -> names in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run ->
          let start = Unix.gettimeofday () in
          run ();
          Printf.printf "  [%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. start)
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested;
  (match (trace_file, !Util.trace_sink) with
  | Some file, Some tr ->
      Engine.Trace.save tr file;
      Printf.printf "\nwrote %d trace events to %s\n%s"
        (Engine.Trace.num_events tr) file (Engine.Trace.summary tr)
  | _ -> ());
  Util.json_write ();
  Printf.printf "\nAll requested experiments finished in %.1fs.\n"
    (Unix.gettimeofday () -. t0)
