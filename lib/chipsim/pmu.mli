(** Software performance-monitoring unit.

    Mirrors the hardware counters CHARM consumes on real machines
    (AMD [ANY_DATA_CACHE_FILLS_FROM_SYSTEM], Intel [OFFCORE_RESPONSE]):
    every simulated memory access increments one per-core counter
    classifying the source that served it. *)

type event =
  | L2_hit  (** served by the core-private L2 *)
  | L3_local_hit  (** served by the local chiplet's L3 slice *)
  | Fill_remote_chiplet  (** cache-to-cache fill, other chiplet, same NUMA *)
  | Fill_remote_numa  (** cache-to-cache fill from another socket *)
  | Dram_local  (** DRAM access to the local NUMA node *)
  | Dram_remote  (** DRAM access to a remote NUMA node *)
  | Coherence_invalidation  (** remote copies invalidated by a write *)
  | Task_executed
  | Task_stolen
  | Migration  (** worker changed its core affinity *)
  | Context_switch  (** coroutine suspend/resume *)

val num_events : int
val event_index : event -> int

type t

val create : cores:int -> t

val counters : t -> int array
(** The live counter array, core-major: event [e] of core [c] sits at
    [c * num_events + event_index e].  {!Machine} bumps its fill-class
    counters through it by direct index, without a call per access. *)

val incr : t -> core:int -> event -> unit
val add : t -> core:int -> event -> int -> unit
val read : t -> core:int -> event -> int
val total : t -> event -> int
val reset : t -> unit

type snapshot

val snapshot : t -> snapshot
val delta : before:snapshot -> after:snapshot -> core:int -> event -> int
val delta_total : before:snapshot -> after:snapshot -> event -> int

type fill_classes = {
  fc_local : int;  (** local-chiplet L3 hits *)
  fc_remote_chiplet : int;
  fc_remote_numa : int;
  fc_dram : int;  (** local + remote DRAM *)
}
(** Machine-wide totals of the four fill classes the CHARM policy consumes
    (paper Fig. 3) — the signal a periodic trace counter track samples. *)

val zero_fill_classes : fill_classes
val fill_classes : t -> fill_classes
val fill_classes_delta : before:fill_classes -> after:fill_classes -> fill_classes
