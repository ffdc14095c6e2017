(** CHARM runtime configuration (paper §4.6).

    The paper's deployment uses a 500 ms scheduler timer and a remote-access
    threshold of 300 events per interval on real hardware.  In simulation
    virtual time runs at workload scale, so the defaults here are the same
    ratio at microsecond scale; both are swept by the sensitivity bench. *)

type approach =
  | Location_centric
      (** minimise cross-chiplet communication: consolidate aggressively *)
  | Cache_centric
      (** maximise aggregate L3: spread aggressively *)
  | Adaptive
      (** switch between the two from profiler feedback (the paper's
          default controller behaviour) *)

type t = {
  scheduler_timer_ns : float;  (** Alg. 1 [SCHEDULER_TIMER] *)
  rmt_chip_access_rate : float;
      (** Alg. 1 [RMT_CHIP_ACCESS_RATE]: remote fill events per timer
          interval that trigger spreading *)
  approach : approach;
  initial_spread : int;  (** initial [spread_rate]; paper initialises to 1 *)
  profile_while_running : bool;
      (** profiler active (5–10%% overhead): each profiling check charges
          the checking worker 40 ns *)
  chiplet_first_steal : bool;
      (** steal from same-chiplet victims first (paper §4.4); [false]
          switches to random victims (ablation) *)
  decentralized : bool;
      (** paper §4.1: each worker decides from its own counters.  [false]
          switches to a centralized variant (ablation): one arbiter
          averages all workers' rates and pushes a uniform spread_rate *)
  energy_weight : float;
      (** EDP-aware placement: > 0 makes {!Policy} discount flee targets
          by their kind's energy density (speed / (1 + w x density)) and
          steer placement away from chiplets the power-cap controller
          marks hot.  0 (the default) disables every energy influence on
          placement, keeping decisions identical to pre-energy CHARM *)
  power_cap_mw : float;
      (** machine-level power cap in simulated milliwatts (1 pJ/ns =
          1 mW); > 0 activates the {!Power_cap} controller, which sheds
          DVFS on the hottest chiplet while the sliding-window power
          estimate exceeds the cap.  0 (the default) = uncapped *)
}

val default : t

val validate : t -> Chipsim.Topology.t -> unit
(** @raise Invalid_argument on nonsensical values for the topology. *)

val approach_to_string : approach -> string
