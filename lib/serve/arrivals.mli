(** Job arrival processes for the serving layer.

    Open-loop arrivals are a Poisson process at a configured offered load:
    exponential inter-arrival gaps drawn from a private {!Chipsim.Rng}
    stream, so arrival times are a pure function of the seed and two runs
    of the same configuration replay the identical trace.  Closed-loop
    mode models a fixed client population with think time; its timing
    emerges from job completions inside the scheduler, so only the
    population parameters live here. *)

type process =
  | Open_loop of { rate_per_s : float }
      (** Poisson arrivals at [rate_per_s] jobs per second of virtual
          time, independent of completions (load keeps coming when the
          server falls behind — the regime where admission control
          matters). *)
  | Closed_loop of { clients : int; think_ns : float }
      (** [clients] sequential issuers, each submitting its next job
          [think_ns] after its previous one completed. *)

val poisson_times : rng:Chipsim.Rng.t -> rate_per_s:float -> jobs:int -> float array
(** [jobs] arrival timestamps in virtual ns, strictly increasing from the
    first exponential gap onward.  Consumes [jobs] draws from [rng].
    @raise Invalid_argument if [rate_per_s <= 0.] or [jobs < 0]. *)
