(* Bench driver: regenerates every table and figure of the paper's
   evaluation.  Run with no arguments for the full suite, or pass
   experiment names (fig1 fig3 fig4 fig5 fig7 tab1 fig8 fig9 tab2 fig10
   fig11 fig12 fig13 fig14 ablation serve fault fleet taskgraph power
   core) to run a subset.  [--json FILE] additionally writes the typed
   rows ({!Charm_bench.Row}) of the experiments that emit them: fleet,
   taskgraph, power and core, whose committed baselines are
   BENCH_fleet.json / BENCH_taskgraph.json / BENCH_power.json /
   BENCH_core.json.  [check OLD.json NEW.json] compares two such files
   under the gates those experiments declare. *)

open Charm_bench

let gated = [ Core_bench.schema; Fleet_bench.schema; Taskgraph_bench.schema; Power_bench.schema ]

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
  let rec split flag acc = function
    | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
    | a :: rest -> split flag (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let trace_file, args = split "--trace" [] args in
  let json_file, args = split "--json" [] args in
  let topology_spec, names = split "--topology" [] args in
  Util.json_sink := json_file;
  Util.trace_sink := Option.map (fun _ -> Engine.Trace.create ()) trace_file;
  (match topology_spec with
  | None -> ()
  | Some spec -> (
      match Harness.Systems.custom_machine_of_spec spec with
      | Ok m -> Util.machine_override := Some m
      | Error msg ->
          Printf.eprintf "bench: bad --topology spec: %s\n" msg;
          exit 2));
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
