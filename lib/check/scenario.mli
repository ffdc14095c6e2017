(** Seeded end-to-end experiments for the fuzzing harness.

    {!generate} draws one {!Experiment.t} deterministically from a seed
    (qcheck-core generators over {!Harness.Systems.topology} bounds): a
    system, a machine (preset or random heterogeneous topology), a worker
    count, fault schedules drawn through the {!Faults.Schedule} grammar,
    and a batch kernel, a multi-tenant serving mix or a fleet.  {!check}
    runs it through {!Experiment.run} with invariants on and applies the
    oracles; {!shrink} proposes strictly simpler variants.  The repro of
    a scenario is {!Experiment.to_string}: the command line that runs the
    same experiment. *)

type mode = Smoke | Deep
(** [Smoke] draws small scenarios (CI gate); [Deep] widens every range
    (nightly fuzz). *)

val generate : mode:mode -> seed:int -> Experiment.t
(** Deterministic: same [mode] and [seed] always yield the same
    experiment, with [check] on and no planted bug. *)

type failure = {
  oracle : string;
      (** ["invariant"], ["determinism/report"], ["determinism/trace"],
          ["determinism/result"], ["reference/tpch"] or ["crash"]; a
          graph kernel's result that differs from its sequential
          reference is an ["invariant"] failure *)
  detail : string;
}

val check : Experiment.t -> failure option
(** Run the experiment twice and apply the oracles: the runs must agree
    byte for byte on report, trace and functional result (a fleet's
    placement log), and a TPC-H checksum must match a single-worker run.  [None] means every oracle passed. *)

val shrink : Experiment.t -> Experiment.t list
(** Strictly simpler candidates, most aggressive first (drop the fault
    schedule, halve it, drop single events, reduce workers, shrink the
    workload, collapse a fleet or its tenants, then normalise machine /
    system / cache scale).  Every candidate differs from the input. *)
