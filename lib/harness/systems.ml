open Chipsim

type machine_kind =
  | Amd_milan
  | Amd_milan_1s
  | Intel_spr
  | Custom of { name : string; topo : Topology.t }

type sys =
  | Charm
  | Charm_os_threads
  | Ring
  | Dw_native
  | Shoal
  | Asymsched
  | Sam
  | Os_default
  | Local_cache
  | Distributed_cache

(* the CLI names: [-s] and [-m] parse them, and every report prints them *)
let systems =
  [
    ("charm", Charm); ("charm-async", Charm_os_threads); ("ring", Ring);
    ("dw-native", Dw_native); ("shoal", Shoal); ("asymsched", Asymsched);
    ("sam", Sam); ("os-default", Os_default); ("local-cache", Local_cache);
    ("distributed-cache", Distributed_cache);
  ]

let machines = [ ("amd", Amd_milan); ("amd1s", Amd_milan_1s); ("intel", Intel_spr) ]

let name_in table v = fst (List.find (fun (_, x) -> x = v) table)
let sys_name = name_in systems

let machine_name = function
  | Custom { name; _ } -> name
  | m -> name_in machines m

let topology kind ~cache_scale =
  match kind with
  | Amd_milan -> Presets.amd_milan ~scale:cache_scale ()
  | Amd_milan_1s -> Presets.amd_milan_1s ~scale:cache_scale ()
  | Intel_spr -> Presets.intel_spr ~scale:cache_scale ()
  | Custom { topo; _ } -> Presets.scale_topology topo ~scale:cache_scale

(* Custom machines always use the default (AMD-calibrated) latency
   profile: loading spr.topo is the same *geometry* as [-m intel] but not
   the same interconnect timings.  Ship profile selection in the topology
   file if that ever matters. *)
let base_profile = function
  | Amd_milan | Amd_milan_1s | Custom _ -> Latency.default_profile
  | Intel_spr -> Presets.intel_profile

let custom_machine_of_spec spec =
  let looks_like_path =
    String.length spec > 0
    && (Sys.file_exists spec
       || Filename.check_suffix spec ".topo"
       || String.contains spec '/')
  in
  if looks_like_path then
    match Topology.of_file spec with
    | Ok topo ->
        let name = Filename.remove_extension (Filename.basename spec) in
        Ok (Custom { name; topo })
    | Error m -> Error (Printf.sprintf "%s: %s" spec m)
  else
    (* an inline spec may lead with a [name NAME] directive, so a machine
       loaded from a file keeps its name when printed and parsed back *)
    let name, spec =
      match String.index_opt spec ';' with
      | Some i when String.starts_with ~prefix:"name " spec ->
          (String.trim (String.sub spec 5 (i - 5)), String.sub spec (i + 1) (String.length spec - i - 1))
      | _ -> ("custom", spec)
    in
    match Topology.of_string spec with
    | Ok topo -> Ok (Custom { name; topo })
    | Error m -> Error m

let custom_machine_to_spec ~name topo =
  (if name = "custom" then "" else "name " ^ name ^ "; ") ^ Topology.to_spec topo

type instance = {
  env : Workloads.Exec_env.t;
  machine : Machine.t;
  charm : Charm.Runtime.t option;
}

(* DimmWitted's engine and std::async both create one kernel thread per
   task *)
let os_threads = Engine.Sched.Os_threads { spawn_ns = 20_000.0; switch_ns = 2_000.0 }

let baseline_spec ~kind = function
  | Ring -> Baselines.Ring.spec ()
  | Dw_native -> { (Baselines.Ring.spec ()) with Baselines.Baseline.task_model = os_threads }
  | Shoal -> Baselines.Shoal.spec ()
  | Asymsched -> Baselines.Asymsched.spec ()
  | Sam -> Baselines.Sam.spec ~confused:(kind = Intel_spr) ()
  | Os_default -> Baselines.Os_default.spec ()
  | Local_cache -> Baselines.Static_policy.local_cache ()
  | Distributed_cache -> Baselines.Static_policy.distributed_cache ()
  | Charm | Charm_os_threads -> invalid_arg "Systems.baseline_spec: not a baseline"

let pinned_cores sys kind ~cache_scale ~n_workers =
  match sys with
  | Charm | Charm_os_threads -> None
  | _ -> (
      let spec = baseline_spec ~kind sys in
      match spec.Baselines.Baseline.on_tick with
      | Some _ -> None
      | None ->
          let topo = topology kind ~cache_scale in
          Some (Array.init n_workers (spec.Baselines.Baseline.placement topo ~n_workers)))

let make ?(cache_scale = 1) ?charm_config ?faults sys kind ~n_workers () =
  let topo = topology kind ~cache_scale in
  let machine, sched, charm, shared_policy =
    match sys with
    | Charm | Charm_os_threads ->
        let machine = Machine.create ~profile:(base_profile kind) topo in
        let task_model = if sys = Charm_os_threads then Some os_threads else None in
        let rt = Charm.Runtime.init ?config:charm_config ?task_model ?faults machine ~n_workers in
        (machine, Charm.Runtime.sched rt, Some rt, Simmem.First_touch)
    | _ ->
        let spec = baseline_spec ~kind sys in
        let profile = spec.Baselines.Baseline.profile_adjust (base_profile kind) in
        let machine = Machine.create ~profile topo in
        let sched = Baselines.Baseline.init ?faults spec machine ~n_workers in
        (machine, sched, None, spec.Baselines.Baseline.shared_policy)
  in
  let alloc_shared ~elt_bytes ~count =
    Machine.alloc machine ~policy:shared_policy ~elt_bytes ~count ()
  in
  { env = { Workloads.Exec_env.sched; alloc_shared }; machine; charm }

let report instance =
  Engine.Stats.collect instance.machine
    ~makespan_ns:(Engine.Sched.makespan instance.env.Workloads.Exec_env.sched)
