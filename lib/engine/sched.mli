open Chipsim

(** Discrete-event task scheduler over the simulated machine.

    Workers model the runtime's OS-pinned worker threads: each owns a core
    binding, a virtual clock and a work-stealing deque of tasks
    (coroutines).  The event loop always advances the least-advanced
    worker, so virtual time is near-monotone machine-wide.  All latencies
    charged by {!Ctx} memory operations accrue to the executing worker's
    clock; the makespan returned by {!run} is the virtual wall-clock time
    the workload would have taken.

    Placement policy is injected through {!hooks}: CHARM and each baseline
    provide their own quantum-end migration logic and steal-victim order. *)

type t
type task
type ctx

exception Deadlock
(** Raised when live tasks remain but every one of them is suspended. *)

type task_model =
  | Coroutines of { switch_ns : float }
      (** user-space cooperative switching (CHARM's model, paper §4.4) *)
  | Os_threads of { spawn_ns : float; switch_ns : float }
      (** one kernel thread per task, as with [std::async]: expensive
          creation, kernel context switches, oversubscription penalties *)

type hooks = {
  on_quantum_end : t -> int -> unit;
      (** called with the worker id after every task quantum *)
  steal_order : t -> thief:int -> int array;
      (** worker ids to steal from, best victim first; an empty array
          means the thief steals nothing *)
}

val no_hooks : hooks
(** No migrations; steal order by ascending core distance (chiplet-first). *)

val random_steal_order : Rng.t -> t -> thief:int -> int array
(** Every worker but [thief] in a fresh order shuffled with the caller's
    [Rng.t]: the random-victim discipline. *)

val create :
  ?task_model:task_model ->
  ?hooks:hooks ->
  Machine.t ->
  n_workers:int ->
  placement:(int -> int) ->
  t
(** [create machine ~n_workers ~placement] binds worker [w] to core
    [placement w].  Distinct workers must get distinct cores.
    [task_model] defaults to coroutines with a 30 ns switch.
    @raise Invalid_argument on core clashes or out-of-range cores. *)

val machine : t -> Machine.t
val n_workers : t -> int
val set_hooks : t -> hooks -> unit

val hooks : t -> hooks
(** The currently installed hooks — lets observers (serving-layer metrics)
    wrap the active policy hooks instead of replacing them. *)

val set_trace : t -> Trace.t option -> unit
(** Attach (or detach) a trace sink.  While attached the
    scheduler emits a [Quantum] event per executed task quantum (real task
    id, start stamped when the task actually begins — idle and steal time
    are excluded), a [Steal] event per successful steal, a [Park] event
    when a worker runs dry, and a [Migration] event from {!migrate}.  With
    no sink (the default) the hot loop pays one branch and allocates
    nothing. *)

val trace : t -> Trace.t option


val set_check : t -> bool -> unit
(** Enable (or disable) the executable invariant layer at runtime; it is
    off after {!create}, and the hot loop then pays one predictable branch
    per quantum.  While on, every quantum asserts: the task does not start
    before its [ready_at] (causality), the executing worker is not dormant and its
    core is online, the worker clock never runs backwards across a
    quantum, and consecutive quanta on a core do not overlap in virtual
    time while the core keeps the same occupant.  Every 64 quanta the
    machine's conservation laws ({!Chipsim.Machine.check_invariants}) and
    scheduler work conservation (every runnable task sits in exactly one
    deque) are verified, and {!run} ends with a full quiescence check.
    A violation raises {!Chipsim.Invariant.Violation}.

    Overhead is a few comparisons per quantum plus the amortised periodic
    sweeps — cheap enough to leave on in every perf experiment (< 2x on
    the micro workloads, unmeasurable on memory-bound ones). *)

val check_enabled : t -> bool

val set_energy : t -> bool -> unit
(** Enable per-quantum compute-energy charging: at each quantum end the
    retired virtual time is charged to the core's compute-energy meter
    ({!Chipsim.Machine.charge_quantum}), scaled by its kind's power
    density and the square of its DVFS factor.  Off by default — energy
    accounting never affects virtual time, and leaving the meters
    untouched keeps energy-off runs bit-identical to pre-energy
    baselines. *)

val check_quiescent : t -> unit
(** The end-of-run verification {!run} performs when checking is on: work
    conservation, empty deques once no task is live, and the machine's
    full conservation scan ({!Chipsim.Machine.check_invariants_full}).
    Exposed so harnesses can verify externally-driven phases.
    @raise Chipsim.Invariant.Violation on the first broken invariant. *)

val set_on_advance : t -> (float -> unit) option -> unit
(** Install a fault pump: called with the event-loop frontier (the
    least-advanced runnable worker's clock) before every scheduling pick.
    Virtual time never runs ahead of the frontier, so applying a fault
    schedule from this callback is deterministic — a fault due at time
    [f] lands at the first quantum boundary whose frontier reaches [f]. *)

val worker_core : t -> int -> int
val worker_clock : t -> int -> float
val worker_of_core : t -> int -> int option

val ready_queue_ids : t -> int -> int list
(** Task ids in the worker's run queue, oldest first.  Exposed so tests
    can assert that refused steals leave the run order untouched. *)

val heap_snapshot : t -> (float * int) array
(** Raw [(clock key, worker id)] entries of the event-loop heap, in heap
    order.  Exposed so tests can assert keys stay in step with worker
    clocks (e.g. across {!sync_clocks}). *)

val steal_once : t -> thief:int -> victim:int -> int
(** Single horizon-filtered steal attempt from [victim]'s queue on behalf
    of [thief]: the stolen task id, or [-1] if every queued task was
    refused (beyond the thief's steal horizon).  A stolen task leaves the
    scheduler's accounting — test hook only. *)

val worker_offlined : t -> int -> bool
(** Whether the worker is dormant because its core went offline with no
    spare core to migrate to. *)

val active_workers : t -> int
(** Workers currently able to run tasks (not dormant). *)

val migrate : t -> worker:int -> core:int -> unit
(** Rebind a worker to another (free) core, charging the migration cost.
    No-op if already there, or if the target core is marked offline in the
    machine's {!Chipsim.Modifiers} (fault-blind policies keep proposing
    arbitrary cores; a real kernel silently skips offlined CPUs).
    @raise Invalid_argument if the core is bound to another worker. *)

val handle_core_offline : t -> core:int -> unit
(** React to a core-offline fault: migrate the bound worker to the nearest
    free online core, or — with none available — park it dormant and drain
    its queue into the nearest surviving worker.  The last active worker
    is never made dormant.  No-op if no worker is bound to [core].  The
    caller is expected to have already marked the core offline in
    {!Chipsim.Modifiers}. *)

val handle_core_online : t -> core:int -> at:float -> unit
(** React to a core-online recovery at virtual time [at]: revive a worker
    that went dormant in place on [core].  A worker that migrated away
    stays on its new core.  No-op otherwise. *)

val spawn : t -> ?worker:int -> ?at:float -> (ctx -> unit) -> task
(** Enqueue a new task.  Without [?worker] tasks are distributed
    round-robin.  [?at] is the earliest virtual time it may start. *)

val ready : t -> ?at:float -> task -> unit
(** Requeue a previously suspended task (on the worker that last ran it). *)

val run : t -> float
(** Run until no live task remains; returns the makespan in virtual ns
    (max over workers that executed work of their final clock). *)

val total_spawned : t -> int
val concurrency_samples : t -> (float * int) array
(** [(virtual time, live task count)] recorded at every spawn/finish. *)

val task_id : task -> int

module Ctx : sig
  val sched : ctx -> t
  val machine : ctx -> Machine.t
  val now : ctx -> float
  val worker_id : ctx -> int
  val core : ctx -> int

  val read : ctx -> Simmem.region -> int -> unit
  (** Simulate a load of element [i]; charges the executing worker. *)

  val write : ctx -> Simmem.region -> int -> unit
  val read_range : ctx -> Simmem.region -> lo:int -> hi:int -> unit
  val write_range : ctx -> Simmem.region -> lo:int -> hi:int -> unit

  val work : ctx -> float -> unit
  (** Charge pure compute time (ns). *)

  val yield : ctx -> unit
  val maybe_yield : ctx -> unit
  (** Yield only if the access budget for this quantum is exhausted. *)

  val quantum_accesses : ctx -> int
  (** Accesses charged to the executing worker so far this quantum (the
      counter {!maybe_yield} compares against the budget). *)

  val suspend : ctx -> (task -> unit) -> unit
  (** Park the current task, handing it to a registrar (wait list). *)

  val spawn : ctx -> ?worker:int -> ?at:float -> (ctx -> unit) -> task
  (** Child tasks default to the spawner's local queue. *)

  val await : ctx -> task -> unit
  (** Suspend until [task] finishes (no-op if it already did). *)
end

val charge : t -> worker:int -> float -> unit
(** Add [ns] of cost to a worker's clock from outside a task (policy hooks,
    profiler overhead). *)

val sync_clocks : t -> unit
(** Advance every worker's clock to the global maximum (a quiescent point
    between measured phases, so the next makespan delta is meaningful).
    The event-loop heap is refreshed to the new clocks, so the next run
    does not start with every entry stale. *)
