open Chipsim

(** Discrete-event task scheduler over the simulated machine.

    Workers model the runtime's OS-pinned worker threads: each owns a core
    binding, a virtual clock and a work-stealing deque of tasks
    (coroutines).  A task is also the context its body runs with.  The event loop always advances the least-advanced
    worker, so virtual time is near-monotone machine-wide.  All latencies
    charged by {!Ctx} memory operations accrue to the executing worker's
    clock; the makespan returned by {!run} is the virtual wall-clock time
    the workload would have taken.

    Placement policy ({!hooks}: CHARM's and each baseline's quantum-end
    migration logic and steal-victim order) and a fault schedule are given
    at {!create} and fixed for the scheduler's life. *)

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
  ?faults:Faults.Schedule.t ->
  Machine.t ->
  n_workers:int ->
  placement:(int -> int) ->
  t
(** [create machine ~n_workers ~placement] binds worker [w] to core
    [placement w].  Distinct workers must get distinct cores.
    [task_model] defaults to coroutines with a 30 ns switch, [hooks] to
    {!no_hooks}, [faults] to none.  The scheduler replays [faults] itself:
    before every scheduling pick it applies, with {!apply_due_faults},
    every event due at or before the event-loop frontier (the
    least-advanced runnable worker's clock).  Virtual time never runs
    ahead of the frontier, so the replay is deterministic: a fault due at
    [f] lands at the first quantum boundary whose frontier reaches [f].
    @raise Invalid_argument on core clashes or out-of-range cores. *)

val machine : t -> Machine.t
val n_workers : t -> int

val hooks : t -> hooks
(** The hooks given at {!create}, so a test can call the policy's
    quantum-end hook directly. *)

val set_trace : t -> Trace.t option -> unit
(** Attach (or detach) a trace sink.  While attached the
    scheduler emits a [Quantum] event per executed task quantum (real task
    id, start stamped when the task actually begins — idle and steal time
    are excluded), a [Steal] event per successful steal, a [Park] event
    when a worker runs dry, a [Migration] event from {!migrate}, and, at
    a quantum end (before [hooks.on_quantum_end]) 50 µs of virtual time
    past the last one, a ["fills"] counter: the machine's fill-class mix
    ({!Chipsim.Pmu.fill_classes}) since that sample, Fig. 3's signal.
    With no sink (the default) the hot loop pays one branch and allocates
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

val worker_core : t -> int -> int
val worker_clock : t -> int -> float

val max_clock : t -> float
(** The largest worker clock (0 before any work): the run's virtual
    wall-clock so far, including charges made after the last quantum. *)

val makespan : t -> float
(** The latest quantum end over all workers (0 before any): {!run}'s value. *)

val worker_clock_cell : t -> int -> float array
(** The worker's one-element clock cell, the one {!Chipsim.Machine.access_clk}
    charges.  Reading [.(0)] gives {!worker_clock} without the boxed float
    a returned [float] costs; callers read it and never write it. *)

val worker_of_core : t -> int -> int
(** The worker that owns [core], or [-1] when none does (or [core] is out
    of range). *)

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

val migrate : t -> worker:int -> core:int -> unit
(** Rebind a worker to another (free) core, charging the migration cost.
    No-op if already there, or if the target core is marked offline in the
    machine's {!Chipsim.Modifiers} (fault-blind policies keep proposing
    arbitrary cores; a real kernel silently skips offlined CPUs).
    @raise Invalid_argument if the core is bound to another worker. *)

val apply_due_faults : t -> now:float -> unit
(** Apply, in schedule order, every event of the {!create} schedule not
    yet applied that is due at or before [now]: set the machine's
    {!Chipsim.Modifiers} (and cache or channel state for L3 and bandwidth
    faults), and on a core-off migrate the core's worker to the nearest
    free online core or, with none, park it dormant and drain its queue
    into the nearest survivor (never the last active worker); on a
    core-on revive a worker that went dormant in place.  Each event is
    recorded as a {!Trace.fault} stamped at its own time.  The event loop
    calls this before every pick; between runs a caller may force the
    schedule up to a time the idle scheduler has not reached. *)

val spawn : t -> ?worker:int -> ?at:float -> (ctx -> unit) -> task
(** Enqueue a new task.  Without [?worker] tasks are distributed
    round-robin.  [?at] is the earliest virtual time it may start.  The
    task is its body's [ctx] and its coroutine applies the body to it
    directly, so a spawn allocates the task record, its ready-time cell
    and one coroutine ({!Coroutine.create_app}), nothing else. *)

val ready : t -> ?at:float -> task -> unit
(** Requeue a previously suspended task (on the worker that last ran it). *)

val run : t -> float
(** Run until no live task remains; returns the {!makespan} (ns). *)

val total_spawned : t -> int

val concurrency : t -> float * float
(** Time-weighted mean and variance of the live-task count, clamped to
    {!n_workers}, over the run so far: each task finish's count holds
    until the next finish.  Kept as three running sums, so finishes
    allocate nothing and nothing grows with the run.  [(0, 0)] until two
    finishes are apart in virtual time. *)

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
  (** [suspend ctx register] calls [register] with the current task
      (typically to list it on a wait list), then parks the task until
      someone {!ready}s it.  Nothing runs between the two steps. *)

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
