type decision = { mutable threshold : float }

type t = {
  config : Config.t;
  (* [Adaptive] until the first [decide] resolves a concrete mode:
     seeding it with the configured approach would make the first
     resolution in [Adaptive] mode look like a switch *)
  mutable last_mode : Config.approach;
  mutable switches : int;
  decision : decision;  (* all-float, so overwriting it boxes nothing *)
}

let create config =
  {
    config;
    last_mode = Config.Adaptive;
    switches = 0;
    decision = { threshold = 0.0 };
  }

(* Approach-specific threshold scaling: location-centric delays spreading
   (high threshold), cache-centric triggers it eagerly (low threshold). *)
let location_scale = 4.0
let cache_scale = 0.25

let concrete_mode t ~remote_chiplet ~dram ~remote =
  match t.config.Config.approach with
  | (Config.Location_centric | Config.Cache_centric) as m -> m
  | Config.Adaptive ->
      let sticky = t.last_mode in
      if remote = 0 then sticky
      else begin
        let dram_share = float_of_int dram /. float_of_int remote in
        let chiplet_share = float_of_int remote_chiplet /. float_of_int remote in
        if dram_share > 0.5 then Config.Cache_centric
        else if chiplet_share > 0.6 then Config.Location_centric
        else sticky
      end

(* When the worker sits on degraded silicon, halving the threshold makes
   the policy spread away from it after roughly half the evidence — the
   hardware is known-bad, so the usual reluctance to migrate is wrong. *)
let degraded_scale = 0.5

let decide t ~degraded ~remote_chiplet ~dram ~remote =
  let mode = concrete_mode t ~remote_chiplet ~dram ~remote in
  let prev = t.last_mode in
  (* an [Adaptive] previous mode is the unresolved placeholder, not a
     direction — resolving it for the first time is not a switch *)
  if prev <> mode && prev <> Config.Adaptive then t.switches <- t.switches + 1;
  t.last_mode <- mode;
  let base = t.config.Config.rmt_chip_access_rate in
  let threshold =
    match mode with
    | Config.Location_centric -> base *. location_scale
    | Config.Cache_centric -> base *. cache_scale
    | Config.Adaptive -> base
  in
  t.decision.threshold <-
    (if degraded then threshold *. degraded_scale else threshold);
  t.decision

let mode t = t.last_mode
let mode_switches t = t.switches
