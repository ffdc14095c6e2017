(** The fleet tier: N independent simulated machines behind one
    deterministic cluster router.

    Each shard is a full {!Harness.Systems} instance (its own machine,
    runtime system and serving session); the cluster advances them in
    lockstep epochs of [epoch_us] virtual microseconds:

    + {b relocate} — if a shard is degraded (online capacity below 0.75
      or at least a quarter of its chiplets sick) and a healthy target
      exists, its queued
      (admitted, not yet dispatched) jobs are drained and re-routed;
    + {b route} — cluster arrivals with timestamps inside the epoch are
      placed by the {!Router} policy against a per-shard load/health
      snapshot, then pass the target shard's own admission control;
    + {b drain} — every shard runs its scheduler with a dispatch horizon
      at the epoch end, so under overload queues persist across epochs
      (and stay visible to the router and the relocator) instead of
      draining eagerly.

    The job set (arrival times, kinds, per-job seeds — optionally
    diurnally modulated) is generated up front from the seed alone, so
    every router policy faces the identical offered load; an entire fleet
    run is byte-deterministic, placement log and traces included.
    Per-shard fault schedules ({!Faults.Schedule}) inject machine-level
    degradation mid-run.  The planted fleet bugs are
    {!Chipsim.Invariant.Drop_relocated} and
    {!Chipsim.Invariant.Route_offline}. *)

type config = {
  n_shards : int;
  sys : Harness.Systems.sys;
  machines : Harness.Systems.machine_kind list;
      (** cycled across shards, so a fleet can mix presets *)
  n_workers : int;  (** per shard *)
  cache_scale : int;
  policy : Router.policy;
  epoch_us : float;
  serve : Serving.Server.config;
      (** per-shard serving template: tenants (their [process] must be
          open-loop; [jobs] is the {e cluster-wide} total per tenant),
          admission bounds, [max_inflight], data, [seed] and [check];
          [trace] and [on_complete] are ignored *)
  diurnal_amplitude : float;  (** 0 = flat Poisson; else rate swings by ±a *)
  diurnal_period_us : float;
  faults : (int * Faults.Schedule.t) list;  (** (shard, schedule) pairs *)
  relocation : bool;
      (** drain-and-requeue queued jobs off degraded shards at epoch
          boundaries *)
  trace : bool;
      (** allocate a router trace (pid 0) plus one per shard (pid s+1),
          returned in [result.traces] for {!Engine.Trace.save} *)
}

val default_config : seed:int -> config
(** 2 CHARM shards on AMD presets, charm-aware routing, 250 us epochs,
    relocation on, no faults, the {!Serving.Server.default_config}
    tenants. *)

type shard_result = {
  shard : int;
  machine : string;
  placed : int;
      (** router placements onto this shard (incl. relocations): the sum
          of its tenants' [submitted] ledgers *)
  sim_events : int;
      (** {!Engine.Stats.sim_events} of this shard's machine — the
          numerator of the [bench core] fleet events/sec figure *)
  report : Serving.Server.report;
}

type result = {
  policy : Router.policy;
  n_shards : int;
  router_submitted : int;  (** fresh arrivals offered to the router *)
  router_shed : int;  (** arrivals dropped because no shard was online *)
  relocations : int;  (** re-routing attempts for drained jobs *)
  epochs : int;
  makespan_ns : float;  (** max shard makespan *)
  shard_results : shard_result list;
  registry : Serving.Metrics.t;
      (** all shard registries merged ({!Serving.Metrics.merge}) plus
          [fleet.*] counters *)
  fleet_latency : Serving.Histogram.t;
      (** cluster-wide job latency (merged [serve.latency_ns]) *)
  placement_log : string;
      (** one line per route/relocate/shed decision — byte-identical for
          equal seeds, the determinism oracle's subject *)
  traces : Engine.Trace.t list;  (** router first, then shards; [] unless
                                     [config.trace] *)
}

val run : config -> result
(** Run the fleet to completion (all arrivals routed, all queues drained).
    With [serve.check] set, per-shard serving invariants run inside each
    session, placements onto offline shards fail immediately, and
    {!check_result} runs on the final result.
    @raise Invalid_argument on bad configuration (no shards, closed-loop
    tenants, out-of-range fault shard, bad diurnal parameters).
    @raise Chipsim.Invariant.Violation when checking finds a violation. *)

val sim_events : result -> int
(** {!Engine.Stats.sim_events} summed over the shards. *)

val check_result : result -> unit
(** Fleet conservation: router arrivals = shard completions + shard sheds
    + router sheds, and per shard [submitted = admitted + shed],
    [completed + relocated_out = admitted].
    @raise Chipsim.Invariant.Violation on the first broken invariant. *)

val result_to_json : result -> string
(** Deterministic JSON: router counters, fleet latency percentiles,
    per-shard summaries and the merged metrics registry. *)
