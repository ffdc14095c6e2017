(** The shared invariant-violation exception for executable runtime checks.

    Every layer of the stack (machine model, scheduler, serving loop)
    validates its own invariants when checking is enabled; all of them
    report through this one exception so harnesses — the scenario fuzzer,
    [--check] CLI runs, CI — can catch "any invariant broke anywhere" in a
    single place.  It lives in [chipsim] only because that is the bottom
    of the dependency order. *)

exception Violation of string
(** [Violation "subsystem: what"] — the invariant that failed, with enough
    context to reproduce. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Violation} with the formatted message.  Call
    sites guard with [if] so the message is only built on failure — checks
    on hot paths must not allocate when the invariant holds. *)

(** {1 Planted bugs}

    Deliberate bugs the invariant layer must catch: CI and the fuzzer
    plant one to prove a checker detects it.  A plant is a fault event
    ([TIME_US:plant:NAME]) that arms the bug on its machine
    ({!Modifiers.arm_plant}); a machine with none armed runs honest code. *)

type plant =
  | Skip_ready_clamp
      (** the scheduler skips the ready-at causality clamp
          ([sched.ready-at] must trip) *)
  | Vote_skip
      (** the replica voter returns replica 0's token unchecked
          ([serve.replica-agreement] must trip; needs K >= 3) *)
  | Drop_relocated
      (** the fleet drops relocated jobs instead of re-routing them
          ([fleet.job-conservation] must trip) *)
  | Route_offline
      (** the fleet router prefers a fully-offline shard
          ([fleet.no-offline-placement] must trip) *)

val plants : (string * plant) list
(** The names [plant:NAME] takes. *)

val plant_name : plant -> string
