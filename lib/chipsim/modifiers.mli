(** Dynamic machine-state modifiers: the mutable "hardware registers" a
    fault injector writes and the simulated machine reads on every access.

    All values start pristine (speed 1.0, everything online, all
    multipliers 1.0).  The scheduler reads {!core_speeds} to scale quantum
    progress and {!core_online} to park workers; {!Machine.access_line}
    reads the link and cross-socket multipliers on every remote fill.
    DVFS state and core hotplug are OS-visible on real machines, so
    runtime components may read those directly; latency multipliers model
    silent degradation that only shows up in PMU counters. *)

type t

val create : cores:int -> chiplets:int -> nodes:int -> t

val core_speeds : t -> float array
(** The live per-core DVFS factors (1.0 nominal, 0.5 half speed, clamped
    to >= 0.05), updated in place by {!set_core_speed}.  The scheduler
    reads the array at every quantum end, where a float returned across a
    module boundary would be boxed. *)

val set_core_speed : t -> int -> float -> unit
val core_online : t -> int -> bool
val set_core_online : t -> int -> bool -> unit

val link_mults : t -> float array
(** The live per-chiplet I/O-die link latency multipliers (>= 1.0),
    updated in place by {!set_link_mult}.  The per-access path reads the
    array directly: a float returned across a module boundary would be
    boxed on every access. *)

val set_link_mult : t -> int -> float -> unit

val xsocket_mult : t -> float
(** Cross-socket hop latency multiplier (>= 1.0). *)

val set_xsocket_mult : t -> float -> unit

val arm_corruption : t -> seed:int -> unit
(** Arm a one-shot result-corruption register: the next result token
    computed through {!take_corruption} is bit-flipped with [seed].
    Several armed corruptions queue FIFO, so a schedule with multiple
    corruption events replays deterministically. *)

val take_corruption : t -> int option
(** Consume the oldest armed corruption seed, if any.  Called by the
    replica layer when it derives a result token; a run without
    replication simply never consumes armed seeds. *)

val arm_plant : t -> Invariant.plant -> unit
(** Arm a planted bug on this machine for good (a [plant:BUG] fault
    event); it leaves {!generation} alone. *)

val planted : t -> Invariant.plant -> bool
(** Whether the bug is armed here.  Read it only inside the branch it
    guards. *)

val online_capacity : t -> float
(** Machine-wide effective compute capacity in [0, 1]: mean over cores of
    [speed] for online cores (offline cores contribute 0).  The serving
    layer scales admission bounds by this. *)

val chiplet_os_impaired : t -> chiplet:int -> cores_per_chiplet:int -> bool
(** OS-visible impairment on the chiplet: any core offline or DVFS
    throttled — the state a real runtime reads from sysfs.  Link
    degradation is deliberately excluded; it is silent and must be
    inferred from latency (see {!Core.Health_monitor}). *)

val chiplet_impaired : t -> chiplet:int -> cores_per_chiplet:int -> bool
(** Any impairment on the chiplet, OS-visible or silent: offline or
    throttled cores, or a raised link multiplier. *)

val generation : t -> int
(** Bumped on every mutation (cheap change detection for observers). *)
