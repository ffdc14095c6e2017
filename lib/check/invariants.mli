(** The executable-invariant layer, gathered behind one switch.

    Each subsystem owns its cheap assertions ({!Engine.Sched.set_check},
    {!Chipsim.Machine.check_invariants}, {!Serving.Server.config}[.check]);
    {!Experiment.run} turns them all on under [check] and verifies the
    machine and scheduler after the run, and every failure surfaces as
    {!Chipsim.Invariant.Violation}.  The {!catalog} names each invariant
    for docs and CLI listings. *)

val catalog : (string * string) list
(** [(name, statement)] for every invariant the layer enforces. *)
