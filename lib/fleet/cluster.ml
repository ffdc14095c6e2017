module Systems = Harness.Systems
module Machine = Chipsim.Machine
module Modifiers = Chipsim.Modifiers
module Server = Serving.Server
module Session = Serving.Server.Session
module Metrics = Serving.Metrics
module Histogram = Serving.Histogram
module Job = Serving.Job
module Trace = Engine.Trace
module Rng = Chipsim.Rng

(* a shard is degraded, and sheds its queue to healthy shards, below this
   online capacity or at/above this sick-chiplet fraction *)
let degraded_capacity = 0.75
let degraded_sick = 0.25

type config = {
  n_shards : int;
  sys : Systems.sys;
  machines : Systems.machine_kind list;
  n_workers : int;
  cache_scale : int;
  policy : Router.policy;
  epoch_us : float;
  serve : Server.config;
  diurnal_amplitude : float;
  diurnal_period_us : float;
  faults : (int * Faults.Schedule.t) list;
  relocation : bool;
  trace : bool;
}

let default_config ~seed =
  {
    n_shards = 2;
    sys = Systems.Charm;
    machines = [ Systems.Amd_milan ];
    n_workers = 16;
    cache_scale = 16;
    policy = Router.Charm_aware;
    epoch_us = 250.0;
    serve = Server.default_config ~seed;
    diurnal_amplitude = 0.0;
    diurnal_period_us = 4000.0;
    faults = [];
    relocation = true;
    trace = false;
  }

let machine_name = Systems.machine_name

type shard_result = {
  shard : int;
  machine : string;
  placed : int;
  sim_events : int;
  report : Server.report;
}

type result = {
  policy : Router.policy;
  n_shards : int;
  router_submitted : int;
  router_shed : int;
  relocations : int;
  epochs : int;
  makespan_ns : float;
  shard_results : shard_result list;
  registry : Metrics.t;
  fleet_latency : Histogram.t;
  placement_log : string;
  traces : Trace.t list;
}

let validate (cfg : config) =
  if cfg.n_shards < 1 then invalid_arg "Cluster.run: n_shards < 1";
  if cfg.machines = [] then invalid_arg "Cluster.run: empty machine list";
  if cfg.epoch_us <= 0.0 then invalid_arg "Cluster.run: epoch_us <= 0";
  if cfg.diurnal_amplitude < 0.0 || cfg.diurnal_amplitude > 1.0 then
    invalid_arg "Cluster.run: diurnal amplitude outside [0, 1]";
  if cfg.diurnal_period_us <= 0.0 then
    invalid_arg "Cluster.run: diurnal period <= 0";
  List.iter
    (fun (s, _) ->
      if s < 0 || s >= cfg.n_shards then
        invalid_arg "Cluster.run: fault schedule for shard out of range")
    cfg.faults;
  List.iter
    (fun (t : Server.tenant_config) ->
      match t.Server.process with
      | Serving.Arrivals.Open_loop _ -> ()
      | Serving.Arrivals.Closed_loop _ ->
          invalid_arg "Cluster.run: fleet mode drives open-loop tenants only")
    cfg.serve.Server.tenants

(* -- cluster-level arrival generation ------------------------------------

   The job set is drawn once, before routing: per tenant, Poisson arrival
   times (optionally diurnally modulated by thinning against the peak
   rate) and a kind + per-job seed stream from the tenant's mix RNG.  The
   identical job set therefore hits every router policy — policy
   comparisons measure placement, not luck of the draw.  A job's id is its
   index in arrival order. *)

let diurnal_times rng ~rate_per_s ~jobs ~amplitude ~period_ns =
  if amplitude <= 0.0 then
    Serving.Arrivals.poisson_times ~rng ~rate_per_s ~jobs
  else begin
    (* Poisson thinning: candidates at the peak rate, accepted with
       probability rate(t)/peak — exact for an inhomogeneous process and
       deterministic given the RNG stream *)
    let peak = rate_per_s *. (1.0 +. amplitude) in
    let out = Array.make jobs 0.0 in
    let t = ref 0.0 in
    let i = ref 0 in
    while !i < jobs do
      let u = 1.0 -. Rng.float rng 1.0 in
      t := !t +. (-.log u /. peak *. 1e9);
      let inst =
        rate_per_s
        *. (1.0 +. (amplitude *. sin (2.0 *. Float.pi *. !t /. period_ns)))
      in
      if Rng.float rng 1.0 < inst /. peak then begin
        out.(!i) <- !t;
        incr i
      end
    done;
    out
  end

let generate_arrivals cfg =
  let period_ns = cfg.diurnal_period_us *. 1e3 in
  let seed = cfg.serve.Server.seed in
  let all =
    List.concat
      (List.mapi
         (fun ti (t : Server.tenant_config) ->
           let rate =
             match t.Server.process with
             | Serving.Arrivals.Open_loop { rate_per_s } -> rate_per_s
             | Serving.Arrivals.Closed_loop _ -> assert false
           in
           let mix_rng, arr_rng = Server.tenant_streams ~seed ~tenant:ti in
           let times =
             diurnal_times arr_rng ~rate_per_s:rate ~jobs:t.Server.jobs
               ~amplitude:cfg.diurnal_amplitude ~period_ns
           in
           Array.to_list
             (Array.map
                (fun at_ns ->
                  (* seed before kind: the order every committed fleet
                     baseline was recorded with *)
                  let seed = Rng.int mix_rng 0x3FFFFFFF in
                  let kind = Server.pick_kind mix_rng t.Server.mix in
                  { Server.id = 0; tenant = ti; kind; seed; submit_ns = at_ns })
                times))
         cfg.serve.Server.tenants)
  in
  (* total order: time, then tenant index (per-tenant times are strictly
     increasing, so this is a deterministic total order) *)
  List.stable_sort
    (fun (a : Server.request) b ->
      match Float.compare a.submit_ns b.submit_ns with
      | 0 -> compare a.tenant b.tenant
      | c -> c)
    all
  |> List.mapi (fun id r -> { r with Server.id })
  |> Array.of_list

(* -- fleet-level invariants --------------------------------------------- *)

let sum_tenants (r : Server.report) f =
  List.fold_left (fun acc tr -> acc + f tr) 0 r.Server.tenant_reports

let sim_events res =
  List.fold_left (fun acc (sr : shard_result) -> acc + sr.sim_events) 0 res.shard_results

let check_result res =
  let fail = Chipsim.Invariant.fail in
  let completed =
    List.fold_left
      (fun acc sr -> acc + sum_tenants sr.report (fun tr -> tr.Server.completed))
      0 res.shard_results
  in
  let shard_shed =
    List.fold_left
      (fun acc sr -> acc + sum_tenants sr.report (fun tr -> tr.Server.shed))
      0 res.shard_results
  in
  (* jobs conserved across router + shards: every arrival offered to the
     router either completed on some shard, was shed by a shard's
     admission control, or was shed at the router (no online shard).
     Relocations cancel out: each one is both a relocated_out and a fresh
     shard submission. *)
  if res.router_submitted <> completed + shard_shed + res.router_shed then
    fail
      "fleet: %d jobs offered to the router but %d completed + %d shard-shed \
       + %d router-shed"
      res.router_submitted completed shard_shed res.router_shed;
  List.iter
    (fun sr ->
      let r = sr.report in
      let submitted = sum_tenants r (fun tr -> tr.Server.submitted) in
      let admitted = sum_tenants r (fun tr -> tr.Server.admitted) in
      let shed = sum_tenants r (fun tr -> tr.Server.shed) in
      let comp = sum_tenants r (fun tr -> tr.Server.completed) in
      let out = sum_tenants r (fun tr -> tr.Server.relocated_out) in
      if submitted <> admitted + shed then
        fail "fleet: shard %d submitted %d <> admitted %d + shed %d" sr.shard
          submitted admitted shed;
      if comp + out <> admitted then
        fail "fleet: shard %d completed %d + relocated-out %d <> admitted %d"
          sr.shard comp out admitted)
    res.shard_results

(* -- the epoch-driven fleet loop ---------------------------------------- *)

let run cfg =
  validate cfg;
  let n = cfg.n_shards in
  let machines = Array.of_list cfg.machines in
  let shard_machine s = machines.(s mod Array.length machines) in
  let router_trace =
    if cfg.trace then Some (Trace.create ~pid:0 ~name:"router" ()) else None
  in
  let tenant_names =
    Array.of_list
      (List.map (fun (t : Server.tenant_config) -> t.Server.name) cfg.serve.Server.tenants)
  in
  (* a replicated tenant's job is a co-scheduled unit: the whole group
     lands on one shard (replicas spread over the shard's chiplets, not
     across machines — voting needs one scheduler), and the router must
     price the placement at the group's full service demand *)
  let tenant_replicas =
    Array.of_list
      (List.map
         (fun (t : Server.tenant_config) -> t.Server.replicas)
         cfg.serve.Server.tenants)
  in
  let shard_traces =
    Array.init n (fun s ->
        if cfg.trace then
          Some
            (Trace.create ~pid:(s + 1)
               ~name:(Printf.sprintf "shard%d/%s" s (machine_name (shard_machine s)))
               ())
        else None)
  in
  let router = Router.create cfg.policy in
  let shard_instance s =
    (* every schedule listed for this shard, replayed by its scheduler *)
    let faults = List.concat_map (fun (s', sch) -> if s' = s then sch else []) cfg.faults in
    Systems.make ~cache_scale:cfg.cache_scale ~faults cfg.sys (shard_machine s)
      ~n_workers:cfg.n_workers ()
  in
  (* every shard serves the same datasets: they are generated once, on
     shard 0, and placed on the others (fresh regions, shared host
     arrays) *)
  let inst0 = shard_instance 0 in
  let data0 = Job.prepare inst0.Systems.env cfg.serve.Server.data in
  let sessions =
    Array.init n (fun s ->
        let inst, data =
          if s = 0 then (inst0, data0)
          else
            let inst = shard_instance s in
            (inst, Job.place inst.Systems.env data0)
        in
        let scfg =
          {
            cfg.serve with
            Server.seed = cfg.serve.Server.seed + (7919 * (s + 1));
            trace = shard_traces.(s);
            (* every completion feeds the router's per-shard latency EWMA;
               only the [ewma] policy reads it, so other fleets are
               unaffected *)
            on_complete =
              Some
                (fun ~tenant:_ ~kind:_ ~submit_ns ~finish_ns ->
                  Router.observe router ~shard:s
                    ~service_ns:(finish_ns -. submit_ns));
          }
        in
        Session.create inst scfg data)
  in

  let views =
    Array.init n (fun s ->
        { Router.shard = s; capacity = 1.0; sick_fraction = 0.0; load_ns = 0.0; depth = 0 })
  in
  let shard_mods s = Machine.modifiers (Session.instance sessions.(s)).Systems.machine in
  let sick_fraction s =
    let inst = Session.instance sessions.(s) in
    let topo = Machine.topology inst.Systems.machine in
    let n_chiplets = topo.Chipsim.Topology.sockets * topo.Chipsim.Topology.chiplets_per_socket in
    let sick =
      match inst.Systems.charm with
      | Some rt ->
          List.length
            (Charm.Health_monitor.sick_chiplets (Charm.Runtime.health rt))
      | None ->
          (* a chiplet-blind machine still has OS-visible state (hotplug,
             DVFS); silent link/L3 degradation stays invisible to it *)
          let mods = Machine.modifiers inst.Systems.machine in
          let c = ref 0 in
          for ch = 0 to n_chiplets - 1 do
            if
              Modifiers.chiplet_os_impaired mods ~chiplet:ch
                ~cores_per_chiplet:topo.Chipsim.Topology.cores_per_chiplet
            then incr c
          done;
          !c
    in
    float_of_int sick /. float_of_int (max 1 n_chiplets)
  in
  (* static per-shard heterogeneity factor: a fleet mixing big-core and
     little-core machines should not route as if they were equal.
     Exactly 1.0 for homogeneous shards, so preset fleets are unchanged. *)
  let shard_kind_capacity =
    Array.init n (fun s ->
        Chipsim.Topology.relative_capacity
          (Machine.topology (Session.instance sessions.(s)).Systems.machine))
  in
  let refresh_views ~now =
    Array.iter
      (fun (v : Router.view) ->
        let s = v.Router.shard in
        let inst = Session.instance sessions.(s) in
        v.Router.capacity <-
          Modifiers.online_capacity (Machine.modifiers inst.Systems.machine)
          *. shard_kind_capacity.(s);
        v.Router.sick_fraction <- sick_fraction s;
        v.Router.load_ns <-
          Float.max 0.0 (Session.backlog_ns sessions.(s) -. now)
          +. Session.queued_cost sessions.(s);
        v.Router.depth <- Session.queue_length sessions.(s))
      views
  in
  let degraded (v : Router.view) =
    v.Router.capacity <= 0.0
    || v.Router.capacity < degraded_capacity
    || v.Router.sick_fraction >= degraded_sick
  in

  let log = Buffer.create 4096 in
  let router_submitted = ref 0 in
  let router_shed = ref 0 in
  let relocations = ref 0 in
  let check = cfg.serve.Server.check in

  (* place one job (fresh arrival or relocation) through the router *)
  let place ~now ~from_shard (r : Server.request) =
    let job_id = r.id in
    let tname = tenant_names.(r.tenant) in
    let cost =
      Session.cost_estimate sessions.(0) r.kind
      *. float_of_int tenant_replicas.(r.tenant)
    in
    let target =
      (* planted routing bug: aim at the first fully-offline shard when
         that shard has the bug armed, to prove the no-offline-placement
         invariant fires *)
      let off = ref 0 in
      while !off < n && views.(!off).Router.capacity > 0.0 do incr off done;
      if !off < n && Modifiers.planted (shard_mods !off) Chipsim.Invariant.Route_offline then Some !off
      else Router.choose router ~exclude:from_shard ~tenant:tname ~cost views
    in
    match target with
    | None ->
        incr router_shed;
        (match router_trace with
        | Some tr -> Trace.fleet_shed tr ~job_id ~tenant:tname ~at_ns:now
        | None -> ());
        Buffer.add_string log
          (Printf.sprintf "%.0f shed #%d %s/%s\n" now job_id tname
             (Job.kind_name r.kind))
    | Some s ->
        if check && views.(s).Router.capacity <= 0.0 then
          Chipsim.Invariant.fail
            "fleet: job #%d placed onto fully-offline shard %d" job_id s;
        (match router_trace with
        | Some tr ->
            if from_shard >= 0 then
              Trace.fleet_relocate tr ~job_id ~from_shard ~to_shard:s ~at_ns:now
            else Trace.fleet_route tr ~job_id ~tenant:tname ~shard:s ~at_ns:now
        | None -> ());
        if from_shard >= 0 then
          Session.note_relocated_in sessions.(s) ~tenant:r.tenant;
        let decision = Session.submit sessions.(s) r in
        let verb = if from_shard >= 0 then
            Printf.sprintf "reloc %d->%d" from_shard s
          else Printf.sprintf "route ->%d" s
        in
        Buffer.add_string log
          (Printf.sprintf "%.0f %s #%d %s/%s %s\n" now verb job_id tname
             (Job.kind_name r.kind)
             (Serving.Admission.decision_name decision))
  in

  (* shard [s] hands its queue to the router: it is degraded, has queued
     jobs, and some other shard is online and healthy *)
  let should_relocate s =
    cfg.relocation
    && degraded views.(s)
    && Session.queue_length sessions.(s) > 0
    && Array.exists
         (fun (v : Router.view) ->
           v.Router.shard <> s && v.Router.capacity > 0.0 && not (degraded v))
         views
  in

  let relocate_pass ~now =
    for s = 0 to n - 1 do
      if should_relocate s then begin
        let dropped = Session.drop_queued sessions.(s) in
        views.(s).Router.load_ns <-
          Float.max 0.0 (Session.backlog_ns sessions.(s) -. now);
        views.(s).Router.depth <- 0;
        (* planted bug: the drained shard's relocated jobs vanish —
           fleet conservation must trip *)
        if not (Modifiers.planted (shard_mods s) Chipsim.Invariant.Drop_relocated)
        then
          List.iter
            (fun r -> incr relocations; place ~now ~from_shard:s r)
            dropped
      end
    done
  in

  let arrivals = generate_arrivals cfg in
  let n_arr = Array.length arrivals in
  let epoch_ns = cfg.epoch_us *. 1e3 in
  let cursor = ref 0 in
  let t0 = ref 0.0 in
  let epochs = ref 0 in
  let running = ref true in
  while !running do
    incr epochs;
    if !epochs > 1_000_000 then
      failwith "Cluster.run: epoch cap exceeded (runaway fleet loop)";
    let t1 = !t0 +. epoch_ns in
    (* the fleet clock has reached [t0] globally: force-apply fault events
       an idle shard's scheduler (which only advances while draining) has
       not reached on its own — between drains every sched is quiescent,
       so this is a safe hotplug point, and it keeps fault visibility
       independent of shard load *)
    Array.iter
      (fun sess ->
        Engine.Sched.apply_due_faults
          (Session.instance sess).Systems.env.Workloads.Exec_env.sched ~now:!t0)
      sessions;
    refresh_views ~now:!t0;
    relocate_pass ~now:!t0;
    while !cursor < n_arr && arrivals.(!cursor).Server.submit_ns < t1 do
      let a = arrivals.(!cursor) in
      incr router_submitted;
      place ~now:a.Server.submit_ns ~from_shard:(-1) a;
      incr cursor
    done;
    let all_routed = !cursor >= n_arr in
    let more_reloc = Array.exists (fun (v : Router.view) -> should_relocate v.Router.shard) views in
    let final = all_routed && not more_reloc in
    let horizon = if final then infinity else t1 in
    Array.iter (fun sess -> Session.drain sess ~horizon ~kick_ns:!t0) sessions;
    if final then running := false;
    t0 := t1
  done;

  let reports = Array.map Session.finish sessions in
  let registry = Metrics.create () in
  Array.iter (fun (r : Server.report) -> Metrics.merge registry r.Server.registry) reports;
  Metrics.incr registry ~by:!router_submitted "fleet.submitted";
  Metrics.incr registry ~by:!router_shed "fleet.router_shed";
  Metrics.incr registry ~by:!relocations "fleet.relocations";
  Metrics.set_gauge registry "fleet.shards" (float_of_int n);
  Metrics.set_gauge registry "fleet.epochs" (float_of_int !epochs);
  let makespan =
    Array.fold_left
      (fun acc (r : Server.report) -> Float.max acc r.Server.makespan_ns)
      0.0 reports
  in
  Metrics.set_gauge registry "serve.makespan_ns" makespan;
  let shard_results =
    List.init n (fun s ->
        let m = (Session.instance sessions.(s)).Systems.machine in
        {
          shard = s;
          machine = machine_name (shard_machine s);
          placed = sum_tenants reports.(s) (fun tr -> tr.Server.submitted);
          sim_events = Engine.Stats.sim_events m;
          report = reports.(s);
        })
  in
  let traces =
    match router_trace with
    | Some tr -> tr :: List.filter_map Fun.id (Array.to_list shard_traces)
    | None -> []
  in
  let result =
    {
      policy = cfg.policy;
      n_shards = n;
      router_submitted = !router_submitted;
      router_shed = !router_shed;
      relocations = !relocations;
      epochs = !epochs;
      makespan_ns = makespan;
      shard_results;
      registry;
      fleet_latency = Metrics.histogram registry "serve.latency_ns";
      placement_log = Buffer.contents log;
      traces;
    }
  in
  if check then check_result result;
  result

(* -- JSON report --------------------------------------------------------- *)

let result_to_json res =
  let obj = Metrics.json_obj in
  let shard sr =
    let r = sr.report in
    obj
      [
        ("shard", string_of_int sr.shard);
        ("machine", "\"" ^ Trace.escape sr.machine ^ "\"");
        ("placed", string_of_int sr.placed);
        ( "completed",
          string_of_int (sum_tenants r (fun tr -> tr.Server.completed)) );
        ("shed", string_of_int (sum_tenants r (fun tr -> tr.Server.shed)));
        ( "relocated_out",
          string_of_int (sum_tenants r (fun tr -> tr.Server.relocated_out)) );
        ( "relocated_in",
          string_of_int (sum_tenants r (fun tr -> tr.Server.relocated_in)) );
        ("makespan_ns", Metrics.json_of_float r.Server.makespan_ns);
        ( "effective_capacity",
          Metrics.json_of_float
            (Metrics.gauge_value r.Server.registry "serve.effective_capacity")
        );
      ]
  in
  obj
    [
      ("policy", "\"" ^ Router.policy_name res.policy ^ "\"");
      ("shards", string_of_int res.n_shards);
      ("router_submitted", string_of_int res.router_submitted);
      ("router_shed", string_of_int res.router_shed);
      ("relocations", string_of_int res.relocations);
      ("epochs", string_of_int res.epochs);
      ("makespan_ns", Metrics.json_of_float res.makespan_ns);
      ("fleet_latency_ns", Metrics.json_of_histogram res.fleet_latency);
      ( "shards_detail",
        "[" ^ String.concat "," (List.map shard res.shard_results) ^ "]" );
      ("metrics", Metrics.to_json res.registry);
    ]
