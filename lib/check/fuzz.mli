(** The fuzzing driver: seed loop, shrinking, repro reporting.

    [run ~mode ~start_seed ~seeds] generates one experiment per seed,
    checks it, and on the first failure greedily minimizes it with
    {!Scenario.shrink} (re-checking each candidate) until no simpler
    experiment still fails.  The repro is {!Experiment.to_string} of the
    minimized experiment. *)

type outcome =
  | Clean of { scenarios : int }
  | Failed of {
      seed : int;  (** generation seed of the original failure *)
      original : Experiment.t;
      original_failure : Scenario.failure;
      minimized : Experiment.t;
      failure : Scenario.failure;  (** failure of the minimized experiment *)
      shrink_steps : int;  (** accepted shrink steps *)
    }

val fault_events : Experiment.t -> int
(** Fault events across every shard's schedule, plants not counted. *)

val run :
  ?log:(string -> unit) ->
  ?plant:Chipsim.Invariant.plant ->
  mode:Scenario.mode ->
  start_seed:int ->
  seeds:int ->
  unit ->
  outcome
(** Stops at the first failing seed.  [plant] is a [0:plant:BUG] event
    on every machine of each generated experiment (and so in its repro);
    shrinking keeps it on every machine.  [log] receives one
    progress line per experiment — its command line — and the shrinking
    trail (default: drop). *)

val outcome_to_text : outcome -> string
(** Human-readable report; for [Failed] it includes both oracles'
    failures and, on its last line, the repro command line (also the
    format of the CI artifact). *)
