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

let fault_events (t : Experiment.t) = List.length (List.concat_map snd t.faults)

(* Greedy shrinking: repeatedly try the candidates of {!Scenario.shrink}
   in order, restart from the first one that still fails, and stop when
   none fails or after [budget] candidate checks.  Returns the smallest
   failing experiment found, its failure and the number of accepted
   steps. *)
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
         (Scenario.shrink !current)
     with Exit -> ())
  done;
  (!current, !cur_fail, !steps)

let run ?(log = fun _ -> ()) ?plant ~mode ~start_seed ~seeds () =
  let rec go i =
    if i >= seeds then Clean { scenarios = seeds }
    else begin
      let seed = start_seed + i in
      let scenario = { (Scenario.generate ~mode ~seed) with plant } in
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
