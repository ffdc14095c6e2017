(* Bench driver: regenerates every table and figure of the paper's
   evaluation.  Run with no arguments for the full suite, or pass
   experiment names (fig1 fig3 fig4 fig5 fig7 tab1 fig8 fig9 tab2 fig10
   fig11 fig12 fig13 fig14 ablation serve fault fleet taskgraph power
   core) to run a subset.  [--json FILE] additionally writes the typed
   rows ({!Charm_bench.Row}) of the experiments that emit them: every
   run of fig1, fig7, fig8, fig9, tab2, fig10, tab1 and fig14 (each with
   the spec that replays it), and fleet, taskgraph, power and core, whose
   committed baselines are BENCH_fleet.json / BENCH_taskgraph.json /
   BENCH_power.json / BENCH_core.json.  [check OLD.json NEW.json]
   compares two such files under the gates those experiments declare.
   An unknown experiment or a flag without its value exits 2. *)

open Charm_bench

let gated =
  [ Core_bench.schema; Fleet_bench.schema; Taskgraph_bench.schema; Power_bench.schema ]
  @ List.map Util.figure_schema [ "fig1"; "fig7"; "fig8"; "fig9"; "tab2"; "fig10"; "tab1"; "fig14" ]

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
  let args = List.tl (Array.to_list Sys.argv) in
  (match args with
  | [ "check"; old_file; new_file ] -> exit (Row.check_files gated old_file new_file)
  | "check" :: _ ->
      prerr_endline "usage: bench check OLD.json NEW.json";
      exit 2
  | _ -> ());
  (* [--trace FILE] attaches one shared trace sink to every instance the
     requested experiments build and writes the Chrome-trace JSON at the
     end; [--json FILE] writes the typed rows of every experiment that
     emits them to one file; [--topology SPEC] re-runs the requested
     figures on a data-driven topology (file path or inline spec) instead
     of their preset machine.  The remaining arguments select experiments. *)
  (* fig3 prints Milan's latency table and fig4 public part data; power
     and taskgraph run their own heterogeneous machine: their machine is
     part of what they measure, so they refuse --topology *)
  let fixed_machine = [ "fig3"; "fig4"; "power"; "taskgraph" ] in
  let usage fmt = Printf.ksprintf (fun m -> prerr_endline ("bench: " ^ m); exit 2) fmt in
  let rec parse flags names = function
    | f :: rest when List.mem f [ "--trace"; "--json"; "--topology" ] -> (
        match rest with
        | v :: rest when not (String.starts_with ~prefix:"--" v) -> parse ((f, v) :: flags) names rest
        | _ -> usage "%s needs a value" f)
    | name :: rest -> parse flags (name :: names) rest
    | [] -> (flags, List.rev names)
  in
  let flags, names = parse [] [] args in
  let trace_file = List.assoc_opt "--trace" flags in
  let json_file = List.assoc_opt "--json" flags in
  let topology_spec = List.assoc_opt "--topology" flags in
  (match List.find_opt (fun n -> not (List.mem_assoc n experiments)) names with
  | Some n -> usage "unknown experiment %S; known: %s" n (String.concat " " (List.map fst experiments))
  | None -> ());
  Util.json_sink := json_file;
  Util.trace_sink := Option.map (fun _ -> Engine.Trace.create ()) trace_file;
  (match topology_spec with
  | None -> ()
  | Some spec -> (
      match Harness.Systems.custom_machine_of_spec spec with
      | Ok m -> Util.machine_override := Some m
      | Error msg -> usage "bad --topology spec: %s" msg));
  let requested = match names with [] -> List.map fst experiments | _ -> names in
  (match (topology_spec, List.find_opt (fun n -> List.mem n fixed_machine) requested) with
  | Some _, Some n -> usage "--topology does not apply to %s: its machine is part of what it measures" n
  | _ -> ());
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      let start = Unix.gettimeofday () in
      (* a machine the experiment's runs do not fit, e.g. a small --topology *)
      (try (List.assoc name experiments) () with Invalid_argument m -> usage "%s: %s" name m);
      Printf.printf "  [%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. start))
    requested;
  (match (trace_file, !Util.trace_sink) with
  | Some file, Some tr ->
      Engine.Trace.save [ tr ] file;
      Printf.printf "\nwrote %d trace events to %s\n%s"
        (Engine.Trace.num_events tr) file (Engine.Trace.summary tr)
  | _ -> ());
  Util.json_write ();
  Printf.printf "\nAll requested experiments finished in %.1fs.\n"
    (Unix.gettimeofday () -. t0)
