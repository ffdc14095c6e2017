(** Typed fault schedules and their textual spec grammar.

    A schedule is a list of fault events at virtual timestamps.  The spec
    grammar accepted by {!parse} is a [';']- or newline-separated list of
    entries ([#]-prefixed entries are comments):

    {v
    TIME_US:core-off:CORE        take CORE offline
    TIME_US:core-on:CORE         bring CORE back
    TIME_US:dvfs:CORE:SPEED      throttle CORE to SPEED x nominal (0 < s)
    TIME_US:l3-ways:CHIPLET:WAYS degrade CHIPLET's L3 to WAYS enabled ways
    TIME_US:link:CHIPLET:MULT    multiply CHIPLET's I/O-die link latency
    TIME_US:xsocket:MULT         multiply cross-socket hop latency
    TIME_US:membw:NODE:FACTOR    throttle NODE's memory bandwidth (0..1]
    TIME_US:corrupt:SEED         arm a one-shot result corruption (SEED
                                 picks the flipped bit; see
                                 {!Chipsim.Modifiers.arm_corruption})
    TIME_US:plant:BUG            arm a planted bug on this machine
                                 ({!Chipsim.Invariant.plants})
    rand:SEED:N:HORIZON_US       N random events over [0, HORIZON_US)
    v}

    Parsing is deterministic, including the [rand] expansion (seeded
    splitmix64), so the same spec over the same topology always yields the
    same schedule. *)

open Chipsim

type kind =
  | Core_off of int
  | Core_on of int
  | Dvfs of { core : int; speed : float }
  | L3_ways of { chiplet : int; ways : int }  (** absolute enabled ways *)
  | Link of { chiplet : int; mult : float }
  | Xsocket of float
  | Membw of { node : int; factor : float }
  | Corruption of { seed : int }
      (** arm a seeded one-shot result-token bit-flip, consumed by the
          next replicated job result (silent data corruption; masked by
          replica voting, fatal to unreplicated tenants only in the sense
          that their token is poisoned — latency is unaffected).  Not in
          {!random}'s pool: the scenario fuzzer injects these separately
          so pre-existing seeds keep their schedules. *)
  | Plant of Invariant.plant
      (** arm a deliberate bug for the rest of the run
          ({!Chipsim.Modifiers.arm_plant}); never in {!random}'s pool *)

type event = { at_ns : float; kind : kind }
type t = event list

val describe : kind -> string
(** Short human-readable label (used for trace fault events). *)

val sort : t -> t
(** Stable sort by timestamp (same-instant events keep spec order). *)

val to_spec : t -> string
(** Render back to the spec grammar ([';']-separated, sorted), every
    number in its shortest exact form: [parse (to_spec t)] is [sort t]
    event for event, times included. *)

val parse : topo:Topology.t -> string -> (t, string) result
(** Parse a spec against a topology (targets are range-checked).  Returns
    the sorted schedule or a human-readable error. *)

val parse_exn : topo:Topology.t -> string -> t
(** @raise Invalid_argument on malformed specs. *)

val random : topo:Topology.t -> seed:int -> n:int -> horizon_us:float -> t
(** [random ~topo ~seed ~n ~horizon_us] is the schedule the spec entry
    [rand:SEED:N:HORIZON_US] expands to: [n] machine-valid events drawn
    deterministically (seeded splitmix64) over [\[0, horizon_us)], sorted.
    The scenario fuzzer draws its fault schedules through this so every
    generated schedule is expressible in the spec grammar.
    @raise Invalid_argument if [n < 0] or [horizon_us <= 0]. *)

val chiplet_meltdown : topo:Topology.t -> at_us:float -> t
(** The benchmark scenario: at [at_us], chiplet 0 throttles to 0.35x DVFS
    on every core, loses all but 2 L3 ways and suffers a 6x I/O-die link
    degradation — a compound "sick chiplet". *)
