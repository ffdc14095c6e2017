type outcome =
  | Clean of { scenarios : int }
  | Failed of {
      seed : int;
      original : Experiment.t;
      original_failure : Scenario.failure;
      minimized : Experiment.t;
      failure : Scenario.failure;
      shrink_steps : int;
    }

module Schedule = Faults.Schedule

let is_plant { Schedule.kind; _ } = match kind with Schedule.Plant _ -> true | _ -> false

let fault_events (t : Experiment.t) =
  List.length (List.filter (Fun.negate is_plant) (List.concat_map snd t.faults))

(* Plants ride the fault schedules.  [arm plants t] gives every machine
   of [t] a schedule of [plants] of its own; [plant_free] drops every
   plant, and a schedule only plants made *)
let arm plants (t : Experiment.t) =
  let machines = match t.workload with Fleet (_, f) -> f.shards | Batch _ | Serve _ -> 1 in
  if plants = [] then t else { t with faults = t.faults @ List.init machines (fun sh -> (sh, plants)) }

let plant_free (t : Experiment.t) =
  let strip (sh, sch) =
    match List.filter (Fun.negate is_plant) sch with [] when sch <> [] -> None | sch -> Some (sh, sch)
  in
  { t with faults = List.filter_map strip t.faults }

(* {!Scenario.shrink} works on the other events; every candidate keeps
   every plant, on each of its machines *)
let candidates (t : Experiment.t) =
  let plants = List.sort_uniq compare (List.filter is_plant (List.concat_map snd t.faults)) in
  List.map (arm plants) (Scenario.shrink (plant_free t))

(* Greedy shrinking: repeatedly try the [candidates] in order, restart
   from the first one that still fails, and stop when none fails or after
   [budget] candidate checks.  Returns the smallest failing experiment
   found, its failure and the number of accepted steps. *)
let minimize scenario failure =
  let budget = 80 in
  let current = ref scenario in
  let cur_fail = ref failure in
  let tried = ref 0 in
  let steps = ref 0 in
  let progress = ref true in
  while !progress && !tried < budget do
    progress := false;
    (* restart from the first still-failing candidate: candidates are
       ordered most-aggressive-first, so accepted steps shrink fast *)
    (try
       List.iter
         (fun cand ->
           if !tried < budget then begin
             incr tried;
             match Scenario.check cand with
             | Some f ->
                 current := cand;
                 cur_fail := f;
                 incr steps;
                 progress := true;
                 raise Exit
             | None -> ()
           end)
         (candidates !current)
     with Exit -> ())
  done;
  (!current, !cur_fail, !steps)

let run ?(log = fun _ -> ()) ?plant ~mode ~start_seed ~seeds () =
  let rec go i =
    if i >= seeds then Clean { scenarios = seeds }
    else begin
      let seed = start_seed + i in
      let plants = Option.to_list (Option.map (fun p -> { Schedule.at_ns = 0.0; kind = Plant p }) plant) in
      let scenario = arm plants (Scenario.generate ~mode ~seed) in
      log (Printf.sprintf "[%d/%d] %s" (i + 1) seeds (Experiment.to_string scenario));
      match Scenario.check scenario with
      | None -> go (i + 1)
      | Some failure ->
          log
            (Printf.sprintf "FAIL oracle=%s: %s" failure.Scenario.oracle
               failure.Scenario.detail);
          log "shrinking...";
          let minimized, min_fail, shrink_steps = minimize scenario failure in
          log (Printf.sprintf "minimized in %d steps" shrink_steps);
          Failed
            {
              seed;
              original = scenario;
              original_failure = failure;
              minimized;
              failure = min_fail;
              shrink_steps;
            }
    end
  in
  go 0

let outcome_to_text = function
  | Clean { scenarios } ->
      Printf.sprintf "fuzz: %d scenarios, all oracles passed\n" scenarios
  | Failed f ->
      String.concat ""
        [
          Printf.sprintf "fuzz: FAILURE at seed %d\n" f.seed;
          Printf.sprintf "original:  %s\n" (Experiment.to_string f.original);
          Printf.sprintf "           oracle=%s: %s\n"
            f.original_failure.Scenario.oracle f.original_failure.Scenario.detail;
          Printf.sprintf "minimized: %d shrink steps, %d fault events\n"
            f.shrink_steps (fault_events f.minimized);
          Printf.sprintf "           oracle=%s: %s\n" f.failure.Scenario.oracle
            f.failure.Scenario.detail;
          Printf.sprintf "repro:     %s\n" (Experiment.to_string f.minimized);
        ]
