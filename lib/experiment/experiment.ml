open Cmdliner
module Systems = Harness.Systems
module Schedule = Faults.Schedule
module Server = Serving.Server
module Job = Serving.Job
module Invariant = Chipsim.Invariant
module Topology = Chipsim.Topology
module Router = Fleet.Router
module Mapper = Taskgraph.Mapper

type kernel =
  | Bfs
  | Pagerank
  | Cc
  | Sssp
  | Gups
  | Graph500
  | Streamcluster
  | Sgd
  | Tpch
  | Ycsb
  | Tpcc
  | Dag

type tenant = {
  name : string;
  weight : float;
  mix : Job.kind list;
  replicas : int;
}

type serve = {
  rate : float;
  jobs : int;
  max_inflight : int;
  queue_bound : int;
  slo_factor : float;
  closed_loop : int option;
  think_us : float;
  tenants : tenant list;
  dag_mapper : Mapper.policy;
}

type fleet = {
  shards : int;
  router : Router.policy;
  epoch_us : float;
  shard_machines : Systems.machine_kind list;
  diurnal : float;
  diurnal_period_us : float;
  relocation : bool;
}

type workload =
  | Batch of { kernel : kernel; query : int option }
  | Serve of serve
  | Fleet of serve * fleet

type t = {
  sys : Systems.sys;
  machine : Systems.machine_kind;
  workers : int;
  cache_scale : int;
  seed : int option;
  graph_scale : int;
  faults : (int * Schedule.t) list;
  energy : bool;
  energy_weight : float;
  power_cap_mw : float;
  check : bool;
  plant : Invariant.plant option;
  workload : workload;
}

(* -- names and defaults --------------------------------------------------- *)

let kernels =
  [
    ("bfs", Bfs); ("pr", Pagerank); ("cc", Cc); ("sssp", Sssp); ("gups", Gups);
    ("graph500", Graph500); ("streamcluster", Streamcluster); ("sgd", Sgd);
    ("tpch", Tpch); ("ycsb", Ycsb); ("tpcc", Tpcc); ("dag", Dag);
  ]

let systems =
  Systems.
    [
      ("charm", Charm); ("charm-async", Charm_os_threads); ("ring", Ring);
      ("dw-native", Dw_native); ("shoal", Shoal); ("asymsched", Asymsched);
      ("sam", Sam); ("os-default", Os_default); ("local-cache", Local_cache);
      ("distributed-cache", Distributed_cache);
    ]

let machines =
  Systems.[ ("amd", Amd_milan); ("amd1s", Amd_milan_1s); ("intel", Intel_spr) ]

let name_in table v = fst (List.find (fun (_, x) -> x = v) table)
let kernel_name k = name_in kernels k

let default_tenants =
  let tenant name weight mix = { name; weight; mix; replicas = 1 } in
  [
    tenant "graph" 2.0 [ Job.Bfs; Job.Bfs; Job.Pagerank ];
    tenant "olap" 1.0 [ Job.Tpch 1; Job.Tpch 3; Job.Tpch 6 ];
    tenant "oltp" 1.0 [ Job.Ycsb_batch 256; Job.Ycsb_batch 256; Job.Gups 4096 ];
  ]

let default_serve =
  {
    rate = 5000.0;
    jobs = 40;
    max_inflight = 4;
    queue_bound = 64;
    slo_factor = 3.0;
    closed_loop = None;
    think_us = 50.0;
    tenants = default_tenants;
    dag_mapper = Mapper.Comm_aware;
  }

let default_fleet =
  {
    shards = 0;
    router = Router.Charm_aware;
    epoch_us = 250.0;
    shard_machines = [];
    diurnal = 0.0;
    diurnal_period_us = 4000.0;
    relocation = true;
  }

type defaults = {
  prog : string;
  kernel : kernel option;  (** [None]: serve *)
  d_workers : int;
  d_graph_scale : int;
  d_seed : int option;
}

let charm_run =
  { prog = "charm_run"; kernel = Some Bfs; d_workers = 64; d_graph_scale = 13; d_seed = None }

let charm_serve =
  { prog = "charm_serve"; kernel = None; d_workers = 32; d_graph_scale = 10; d_seed = Some 42 }

(* -- flag-value parsers --------------------------------------------------- *)

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let parse_tenant spec =
  match String.split_on_char ':' spec with
  | name :: weight_s :: kinds_rest when name <> "" -> (
      match float_of_string_opt weight_s with
      | None -> err "bad tenant spec %S: weight %S is not a number" spec weight_s
      | Some w when not (Float.is_finite w && w > 0.0) ->
          err "bad tenant spec %S: weight %g must be positive" spec w
      | Some weight ->
          (* kind names may contain ':' (tpch:3), so rejoin before
             splitting on the '+' separators *)
          let kind_names = String.concat ":" kinds_rest |> String.split_on_char '+' in
          if kinds_rest = [] || List.mem "" kind_names then
            err "bad tenant spec %S: empty job-kind list (want KIND+KIND+...)" spec
          else
            let rec resolve acc = function
              | [] -> Ok { name; weight; mix = List.rev acc; replicas = 1 }
              | k :: rest -> (
                  match Job.kind_of_string k with
                  | Some kind -> resolve (kind :: acc) rest
                  | None -> err "bad tenant spec %S: unknown job kind %S" spec k)
            in
            resolve [] kind_names)
  | _ -> err "bad tenant spec %S: want NAME:WEIGHT:KIND+KIND (e.g. gold:2:bfs+tpch:3)" spec

let parse_replication spec =
  match String.rindex_opt spec ':' with
  | Some i when i > 0 && i < String.length spec - 1 -> (
      let name = String.sub spec 0 i in
      let k_s = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt k_s with
      | None -> err "bad --replicate spec %S: degree %S is not an integer" spec k_s
      | Some k when k < 1 -> err "bad --replicate spec %S: degree %d must be >= 1" spec k
      | Some k -> Ok (name, k))
  | _ -> err "bad --replicate spec %S: want NAME:DEGREE (e.g. gold:3)" spec

let parse_shard_machines spec =
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | n :: rest -> (
        let n = String.trim n in
        match List.assoc_opt n machines with
        | Some m -> resolve (m :: acc) rest
        | None -> (
            (* not a preset: a topology file or an inline spec, so one
               fleet can mix preset and data-driven shards *)
            match Systems.custom_machine_of_spec n with
            | Ok m -> resolve (m :: acc) rest
            | Error fe ->
                err
                  "bad --shard-machines list %S: %S is neither a machine preset \
                   (want %s) nor a topology (%s)"
                  spec n
                  (String.concat "/" (List.map fst machines))
                  fe))
  in
  if spec = "" then err "bad --shard-machines list: empty"
  else resolve [] (String.split_on_char ',' spec)

let parse_shard_fault spec =
  match String.index_opt spec ':' with
  | Some i when i > 0 -> (
      let shard_s = String.sub spec 0 i in
      match int_of_string_opt shard_s with
      | None -> err "bad --faults-shard entry %S: shard %S is not an integer" spec shard_s
      | Some shard when shard < 0 ->
          err "bad --faults-shard entry %S: shard %d must be >= 0" spec shard
      | Some shard -> Ok (shard, String.sub spec (i + 1) (String.length spec - i - 1)))
  | _ -> err "bad --faults-shard entry %S: want SHARD:SPEC" spec

(* a fault spec is given inline or as a path to a spec file *)
let load_fault_spec spec =
  if Sys.file_exists spec && not (Sys.is_directory spec) then
    In_channel.with_open_bin spec In_channel.input_all
  else spec

(* -- text form ------------------------------------------------------------ *)

let fmt_float = Topology.format_float

let tenant_spec te =
  Printf.sprintf "%s:%s:%s" te.name (fmt_float te.weight)
    (String.concat "+" (List.map Job.kind_name te.mix))

let machine_spec = function
  | Systems.Custom { name; topo } -> Systems.custom_machine_to_spec ~name topo
  | m -> name_in machines m

let quote s =
  let safe = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ',' | ':' | '+' | '/'
    | '=' | '@' | '%' ->
        true
    | _ -> false
  in
  if s <> "" && String.for_all safe s then s
  else "'" ^ String.concat "'\\''" (String.split_on_char '\'' s) ^ "'"

let to_string t =
  let words = ref [] in
  let add flag v = words := quote v :: flag :: !words in
  let flag f = words := f :: !words in
  let int = string_of_int in
  let shard_faults l =
    List.iter
      (fun (s, sch) -> add "--faults-shard" (Printf.sprintf "%d:%s" s (Schedule.to_spec sch)))
      l
  in
  let serve =
    match t.workload with Serve s | Fleet (s, _) -> Some s | Batch _ -> None
  in
  (match t.workload with
  | Batch { kernel; query } ->
      flag charm_run.prog;
      add "-w" (kernel_name kernel);
      Option.iter (fun q -> add "-q" (int q)) query
  | Serve _ -> flag charm_serve.prog
  | Fleet (_, f) ->
      flag charm_serve.prog;
      add "--fleet" (int f.shards);
      add "--router" (Router.policy_name f.router);
      add "--epoch-us" (fmt_float f.epoch_us));
  add "-s" (name_in systems t.sys);
  (match t.machine with
  | Systems.Custom _ -> add "--topology" (machine_spec t.machine)
  | m -> add "-m" (machine_spec m));
  add "-n" (int t.workers);
  add "--cache-scale" (int t.cache_scale);
  Option.iter
    (fun s ->
      add "--rate" (fmt_float s.rate);
      add "--jobs" (int s.jobs))
    serve;
  Option.iter (fun s -> add "--seed" (int s)) t.seed;
  Option.iter
    (fun s ->
      add "--max-inflight" (int s.max_inflight);
      add "--queue-bound" (int s.queue_bound))
    serve;
  add "--graph-scale" (int t.graph_scale);
  Option.iter
    (fun s ->
      if List.map (fun te -> { te with replicas = 1 }) s.tenants <> default_tenants
      then List.iter (fun te -> add "--tenant" (tenant_spec te)) s.tenants;
      List.iter
        (fun te ->
          if te.replicas <> 1 then
            add "--replicate" (Printf.sprintf "%s:%d" te.name te.replicas))
        s.tenants;
      if s.slo_factor <> default_serve.slo_factor then
        add "--slo-factor" (fmt_float s.slo_factor);
      Option.iter (fun c -> add "--closed-loop" (int c)) s.closed_loop;
      if s.think_us <> default_serve.think_us then add "--think-us" (fmt_float s.think_us);
      if s.dag_mapper <> default_serve.dag_mapper then
        add "--dag-mapper" (Mapper.policy_name s.dag_mapper))
    serve;
  (match t.workload with
  | Fleet (_, f) ->
      if f.shard_machines <> [] then
        add "--shard-machines" (String.concat "," (List.map machine_spec f.shard_machines));
      if f.diurnal <> 0.0 then add "--diurnal" (fmt_float f.diurnal);
      if f.diurnal_period_us <> default_fleet.diurnal_period_us then
        add "--diurnal-period-us" (fmt_float f.diurnal_period_us);
      if not f.relocation then flag "--no-relocation";
      shard_faults t.faults
  | Batch _ | Serve _ -> (
      match t.faults with
      | (0, sch) :: rest ->
          add "--faults" (Schedule.to_spec sch);
          shard_faults rest
      | l -> shard_faults l));
  if t.energy then flag "--energy";
  if t.energy_weight <> 0.0 then add "--energy-weight" (fmt_float t.energy_weight);
  if t.power_cap_mw <> 0.0 then add "--power-cap" (fmt_float t.power_cap_mw);
  if t.check then flag "--check";
  Option.iter (fun p -> add "--plant" (Invariant.plant_name p)) t.plant;
  String.concat " " (List.rev !words)

(* POSIX-shell word splitting: blanks separate words, single quotes are
   literal, double quotes group, a backslash escapes the next character *)
let words line =
  let out = ref [] and buf = Buffer.create 64 and started = ref false in
  let flush () =
    if !started then out := Buffer.contents buf :: !out;
    Buffer.clear buf;
    started := false
  in
  let n = String.length line in
  let rec go i quote =
    if i >= n then
      if quote <> None then Error "unterminated quote"
      else (
        flush ();
        Ok (List.rev !out))
    else
      match (quote, line.[i]) with
      | None, (' ' | '\t' | '\n') ->
          flush ();
          go (i + 1) None
      | None, (('\'' | '"') as q) ->
          started := true;
          go (i + 1) (Some q)
      | None, '\\' when i + 1 < n ->
          started := true;
          Buffer.add_char buf line.[i + 1];
          go (i + 2) None
      | Some q, c when c = q -> go (i + 1) None
      | _, c ->
          started := true;
          Buffer.add_char buf c;
          go (i + 1) quote
  in
  go 0 None

(* -- the flag table ------------------------------------------------------- *)

(* a converter from a one-line-error parser and a printer *)
let flag_conv parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (parse s)),
      fun ppf v -> Format.pp_print_string ppf (print v) )

let plant_conv = Arg.enum Invariant.plants

(* Size knobs past which a run cannot work are bounded here, at parse
   time, so an oversized value exits 2 with one line instead of running
   the host out of memory.  Peak memory grows ~4x per two graph-scale
   steps (450 MB at 18 with -w bfs) and by ~15 MB per default fleet shard.
   --cache-scale has no maximum: caches stop shrinking at a floor, so any
   value >= 1 runs. *)
let max_graph_scale = 20
let max_fleet = 64

let int_in ~lo ?(hi = max_int) () =
  flag_conv
    (fun s ->
      match int_of_string_opt s with
      | None -> err "invalid value '%s', expected an integer" s
      | Some n when n < lo -> err "%d is below the minimum %d" n lo
      | Some n when n > hi -> err "%d is above the maximum %d" n hi
      | Some n -> Ok n)
    string_of_int

(* every float flag: cmdliner's own [float] reads "nan" and "inf", and a
   non-finite rate, SLO factor or epoch either never terminates or
   reports nonsense *)
let finite_float =
  flag_conv
    (fun s ->
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Ok f
      | Some _ -> err "'%s' is not a finite number" s
      | None -> err "invalid value '%s', expected a floating point number" s)
    fmt_float

let machine_term =
  let sys =
    Arg.(value & opt (enum systems) Systems.Charm & info [ "s"; "system" ] ~doc:"Runtime system.")
  in
  let preset =
    Arg.(
      value
      & opt (enum machines) Systems.Amd_milan
      & info [ "m"; "machine" ] ~doc:"Machine model.")
  in
  let topology =
    let topology_conv =
      flag_conv Systems.custom_machine_of_spec machine_spec
    in
    Arg.(
      value
      & opt (some topology_conv) None
      & info [ "topology" ] ~docv:"SPEC"
          ~doc:
            "Data-driven machine topology overriding $(b,-m): a path to a \
             topology file (see examples/topologies/) or an inline \
             ';'-separated spec. Supports heterogeneous chiplet kinds \
             (big/little/accel) and per-chiplet link overrides; in fleet mode \
             it is every shard's default machine.")
  in
  Term.(const (fun sys preset topo -> (sys, Option.value topo ~default:preset)) $ sys $ preset $ topology)

let serve_term =
  let float_opt names ~default ~docv doc = Arg.(value & opt finite_float default & info names ~docv ~doc) in
  let int_opt names ~default doc = Arg.(value & opt int default & info names ~doc) in
  let d = default_serve in
  let rate = float_opt [ "rate" ] ~default:d.rate ~docv:"JOBS/S" "Offered load per tenant (jobs/s of virtual time)." in
  let jobs = int_opt [ "jobs" ] ~default:d.jobs "Jobs submitted per tenant (cluster-wide in fleet mode)." in
  let inflight = int_opt [ "max-inflight" ] ~default:d.max_inflight "Concurrent jobs in service." in
  let queue_bound = int_opt [ "queue-bound" ] ~default:d.queue_bound "Per-tenant admission queue bound." in
  let slo =
    float_opt [ "slo-factor" ] ~default:d.slo_factor ~docv:"X"
      "SLO as a multiple of the tenant's mean job cost."
  in
  let closed_loop =
    Arg.(
      value
      & opt (some (int_in ~lo:1 ())) None
      & info [ "closed-loop" ] ~doc:"Closed-loop clients per tenant (instead of Poisson arrivals).")
  in
  let think = float_opt [ "think-us" ] ~default:d.think_us ~docv:"US" "Closed-loop think time (us of virtual time)." in
  let tenants =
    Arg.(
      value
      & opt_all (flag_conv parse_tenant tenant_spec) []
      & info [ "tenant" ] ~docv:"NAME:WEIGHT:KIND+KIND"
          ~doc:
            "Tenant spec (e.g. gold:2:bfs+tpch:3; kinds bfs, pagerank, gups:N, \
             tpch:Q, ycsb:N, dag:SHAPE:LAYERS); repeatable. Replaces the \
             default graph/olap/oltp tenants.")
  in
  let replicate =
    Arg.(
      value
      & opt_all
          (flag_conv parse_replication (fun (n, k) -> Printf.sprintf "%s:%d" n k))
          []
      & info [ "replicate" ] ~docv:"NAME:K"
          ~doc:
            "Run the named tenant's jobs $(b,K) times each on distinct \
             chiplets and vote on the result tokens; injected corruption \
             faults are masked and counted as divergences in the report. \
             Repeatable, one entry per tenant.")
  in
  let dag_mapper =
    Arg.(
      value
      & opt (enum (List.map (fun p -> (Mapper.policy_name p, p)) Mapper.all_policies)) d.dag_mapper
      & info [ "dag-mapper" ] ~docv:"POLICY"
          ~doc:
            "How task-DAG tenants (kinds $(b,dag:SHAPE:LAYERS)) are mapped \
             onto chiplets: $(b,comm-aware) (contract heavy edges, place \
             clusters by kind-weighted load) or $(b,blind) (round-robin \
             baseline).")
  in
  let make rate jobs max_inflight queue_bound slo_factor closed_loop think_us tenants
      replicate dag_mapper =
    let tenants = if tenants = [] then default_tenants else tenants in
    let rec distinct = function
      | [] -> Ok tenants
      | te :: rest when List.exists (fun u -> u.name = te.name) rest ->
          err "--tenant %s is given twice; tenant names must be distinct" te.name
      | _ :: rest -> distinct rest
    in
    let apply tenants (rname, k) =
      Result.bind tenants (fun tenants ->
          if List.exists (fun te -> te.name = rname) tenants then
            Ok (List.map (fun te -> if te.name = rname then { te with replicas = k } else te) tenants)
          else
            err "--replicate %s:%d names no tenant (have %s)" rname k
              (String.concat "/" (List.map (fun te -> te.name) tenants)))
    in
    Result.map
      (fun tenants ->
        { rate; jobs; max_inflight; queue_bound; slo_factor; closed_loop; think_us; tenants; dag_mapper })
      (List.fold_left apply (distinct tenants) replicate)
  in
  Term.(
    const make $ rate $ jobs $ inflight $ queue_bound $ slo $ closed_loop $ think $ tenants
    $ replicate $ dag_mapper)

let fleet_term =
  let d = default_fleet in
  let shards =
    Arg.(
      value & opt (int_in ~lo:0 ~hi:max_fleet ()) 0
      & info [ "fleet" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
            "Shard the server across $(docv) (at most %d) simulated machines behind a \
             cluster router (0 = single-machine mode). Per-tenant --rate and \
             --jobs become cluster-wide; the report is the fleet JSON summary \
             (merged metrics, router counters, per-shard detail)."
            max_fleet))
  in
  let router =
    Arg.(
      value
      & opt (enum (List.map (fun p -> (Router.policy_name p, p)) Router.all_policies)) d.router
      & info [ "router" ] ~docv:"POLICY"
          ~doc:
            "Fleet placement policy: $(b,charm) (load over effective \
             capacity, chiplet-health-aware, tenant affinity), \
             $(b,least-loaded) (load only, chiplet-blind), $(b,ewma) (EWMA of \
             observed per-shard job latencies times queue depth), or \
             $(b,round-robin).")
  in
  let epoch_us =
    Arg.(
      value & opt finite_float d.epoch_us
      & info [ "epoch-us" ] ~docv:"US"
          ~doc:
            "Fleet routing epoch (virtual us): shards drain with a dispatch \
             horizon at each epoch end, and routing/relocation decisions run \
             at epoch boundaries.")
  in
  let shard_machines =
    Arg.(
      value
      & opt
          (flag_conv parse_shard_machines (fun ms -> String.concat "," (List.map machine_spec ms)))
          []
      & info [ "shard-machines" ] ~docv:"LIST"
          ~doc:
            "Comma-separated machine specs cycled over the shards: presets \
             (e.g. $(b,amd,intel)) and/or topology files (e.g. \
             $(b,amd,examples/topologies/tiny-hetero.topo) for a \
             heterogeneous fleet); defaults to the --machine for every shard.")
  in
  let diurnal =
    Arg.(
      value & opt finite_float d.diurnal
      & info [ "diurnal" ] ~docv:"A"
          ~doc:
            "Diurnal modulation amplitude in [0,1] for fleet arrivals: the \
             Poisson rate swings by a factor (1 ± $(docv)) over each period.")
  in
  let period =
    Arg.(
      value & opt finite_float d.diurnal_period_us
      & info [ "diurnal-period-us" ] ~docv:"US" ~doc:"Diurnal period (virtual us).")
  in
  let no_relocation =
    Arg.(
      value & flag
      & info [ "no-relocation" ]
          ~doc:"Disable cross-shard relocation of queued jobs away from degraded shards.")
  in
  let make shards router epoch_us shard_machines diurnal diurnal_period_us no_relocation =
    if shards <= 0 then None
    else
      Some
        {
          shards;
          router;
          epoch_us;
          shard_machines;
          diurnal;
          diurnal_period_us;
          relocation = not no_relocation;
        }
  in
  Term.(const make $ shards $ router $ epoch_us $ shard_machines $ diurnal $ period $ no_relocation)

let term d =
  let workers = Arg.(value & opt int d.d_workers & info [ "n"; "workers" ] ~doc:"Worker threads (per machine).") in
  let cache_scale =
    Arg.(
      value
      & opt (int_in ~lo:1 ()) 16
      & info [ "cache-scale" ]
          ~doc:
            "Divide cache capacities by this factor (at least 1; caches stop \
             shrinking at 16 L2 and 64 L3 lines).")
  in
  let workload =
    Arg.(
      value
      & opt (enum (("serve", None) :: List.map (fun (n, k) -> (n, Some k)) kernels)) d.kernel
      & info [ "w"; "workload" ]
          ~doc:
            "Workload: a batch kernel, or $(b,serve) for the online \
             multi-tenant server (a fleet of them with $(b,--fleet)).")
  in
  let query = Arg.(value & opt (some int) None & info [ "q"; "query" ] ~doc:"TPC-H query number.") in
  let graph_scale =
    Arg.(
      value
      & opt (int_in ~lo:1 ~hi:max_graph_scale ()) d.d_graph_scale
      & info [ "graph-scale" ]
          ~doc:(Printf.sprintf "log2 of graph vertices, in [1, %d]." max_graph_scale))
  in
  let seed =
    Arg.(
      value
      & opt (some int) d.d_seed
      & info [ "seed" ]
          ~doc:
            "Seed for every input generator (graph, tables, access streams) \
             and, when serving, the arrival and job streams (default 42).")
  in
  let energy =
    Arg.(
      value & flag
      & info [ "energy" ]
          ~doc:
            "Turn per-quantum compute-energy accounting on (memory energy is \
             always metered). Reports gain the compute term and, when \
             serving, per-tenant energy totals; virtual time is unaffected.")
  in
  let energy_weight =
    Arg.(
      value & opt finite_float 0.0
      & info [ "energy-weight" ] ~docv:"W"
          ~doc:
            "EDP-aware placement weight for CHARM's policy: flee-migration \
             scoring divides each chiplet's speed by (1 + $(docv) x the kind's \
             energy density). Implies --energy. 0 disables.")
  in
  let power_cap =
    Arg.(
      value & opt finite_float 0.0
      & info [ "power-cap" ] ~docv:"MW"
          ~doc:
            "Machine power cap in simulated milliwatts (1 mW = 1 pJ/ns), \
             enforced by CHARM's controller via DVFS shedding of the hottest \
             chiplet. Implies --energy. 0 disables.")
  in
  let faults =
    Arg.(
      value
      & opt (some (flag_conv (fun s -> Ok (load_fault_spec s)) Fun.id)) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault schedule (inline or a spec-file path) for \
             the machine, or shard 0 of a fleet. Entries are ';'- or \
             newline-separated $(i,TIME_US:KIND:ARGS) — core-off/core-on:CORE, \
             dvfs:CORE:SPEED, l3-ways:CHIPLET:WAYS, link:CHIPLET:MULT, \
             xsocket:MULT, membw:NODE:FACTOR, corrupt:SEED (poison one \
             replicated job's result token) — plus rand:SEED:N:HORIZON_US for \
             seeded random events.")
  in
  let faults_shard =
    Arg.(
      value
      & opt_all
          (flag_conv
             (fun s -> Result.map (fun (i, spec) -> (i, load_fault_spec spec)) (parse_shard_fault s))
             (fun (i, s) -> Printf.sprintf "%d:%s" i s))
          []
      & info [ "faults-shard" ] ~docv:"SHARD:SPEC"
          ~doc:"Fault schedule for one shard (same grammar as --faults). Repeatable.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Run with executable invariants on: scheduler causality and \
             per-core quantum ordering, machine fill-class conservation, and \
             the serving and fleet layers' admission, completion and job \
             conservation. A violation aborts with exit code 3.")
  in
  let plant =
    Arg.(
      value
      & opt (some plant_conv) None
      & info [ "plant" ] ~docv:"BUG"
          ~doc:
            "Plant a deliberate bug so --check can show its invariant trips: \
             $(b,skip-ready-clamp) (scheduler causality), $(b,vote-skip) \
             (replica voter), $(b,drop-relocated) or $(b,route-offline) \
             (fleet router). Testing hook; do not use for measurements.")
  in
  let build (sys, machine) workers cache_scale workload query graph_scale seed energy
      energy_weight power_cap_mw faults faults_shard check plant serve fleet =
    let ( let* ) = Result.bind in
    let* () = if energy_weight >= 0.0 then Ok () else err "--energy-weight must be >= 0" in
    let* () = if power_cap_mw >= 0.0 then Ok () else err "--power-cap must be >= 0" in
    let* workload, seed =
      match (workload, fleet) with
      | Some kernel, None -> Ok (Batch { kernel; query }, seed)
      | Some _, Some _ -> err "--fleet runs the serving workload (-w serve)"
      | None, fleet -> (
          let* s = serve in
          let seed = Some (Option.value seed ~default:42) in
          match fleet with
          | _ when s.closed_loop = None && s.rate <= 0.0 -> err "--rate must be positive"
          | None -> Ok (Serve s, seed)
          | Some _ when s.closed_loop <> None -> err "--fleet drives open-loop tenants only"
          | Some _ when energy || energy_weight > 0.0 || power_cap_mw > 0.0 ->
              err
                "--energy/--energy-weight/--power-cap are single-machine knobs \
                 (shards build their own runtimes)"
          | Some f -> Ok (Fleet (s, f), seed))
    in
    (* each fault spec parses against the machine of the shard it targets *)
    let shards, shard_machine =
      match workload with
      | Fleet (_, f) ->
          let ms = if f.shard_machines = [] then [ machine ] else f.shard_machines in
          (f.shards, fun s -> List.nth ms (s mod List.length ms))
      | Batch _ | Serve _ -> (1, fun _ -> machine)
    in
    let parse_fault (what, s, spec) =
      if s >= shards then err "%s: shard %d out of range (%d shard(s))" what s shards
      else
        match Systems.topology (shard_machine s) ~cache_scale with
        | exception Invalid_argument m -> Error m
        | topo -> (
            match Schedule.parse ~topo spec with
            | Ok sch -> Ok (s, sch)
            | Error m -> err "bad %s spec: %s" what m)
    in
    let* faults =
      List.fold_left
        (fun acc f -> Result.bind acc (fun l -> Result.map (fun x -> x :: l) (parse_fault f)))
        (Ok [])
        ((match faults with Some spec -> [ ("--faults", 0, spec) ] | None -> [])
        @ List.map (fun (s, spec) -> ("--faults-shard", s, spec)) faults_shard)
    in
    Ok
      {
        sys;
        machine;
        workers;
        cache_scale;
        seed;
        graph_scale;
        faults = List.rev faults;
        energy;
        energy_weight;
        power_cap_mw;
        check;
        plant;
        workload;
      }
  in
  Term.(
    ret
      (const (fun r -> match r with Ok t -> `Ok t | Error m -> `Error (false, m))
      $ (const build $ machine_term $ workers $ cache_scale $ workload $ query $ graph_scale
       $ seed $ energy $ energy_weight $ power_cap $ faults $ faults_shard $ check $ plant
       $ serve_term $ fleet_term)))

let exits =
  Cmd.Exit.info 2 ~doc:"on a malformed flag value or a rejected configuration."
  :: Cmd.Exit.info 3 ~doc:"on an invariant violation under $(b,--check)."
  :: Cmd.Exit.defaults

(* evaluate [term] over [argv]; every parse or validation error comes back
   as its first line, which names the flag *)
let eval info ~argv ~help term =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.pp_set_margin ppf 1_000_000;
  match Cmd.eval_value ~argv ~help ~err:ppf (Cmd.v info term) with
  | Ok (`Ok v) -> Ok (Some v)
  | Ok (`Help | `Version) -> Ok None
  | Error _ ->
      Format.pp_print_flush ppf ();
      Error (List.hd (String.split_on_char '\n' (Buffer.contents buf)))

let parse_argv info term =
  match eval info ~argv:Sys.argv ~help:Format.std_formatter term with
  | Ok (Some v) -> v
  | Ok None -> exit 0
  | Error line ->
      prerr_endline line;
      exit 2

let of_string line =
  match words line with
  | Error m -> Error m
  | Ok [] -> Error "empty command line"
  | Ok (prog :: _ as argv) -> (
      let base = Filename.remove_extension (Filename.basename prog) in
      match List.find_opt (fun d -> d.prog = base) [ charm_run; charm_serve ] with
      | None -> err "%S is not charm_run or charm_serve" prog
      | Some d -> (
          let help = Format.formatter_of_buffer (Buffer.create 16) in
          match eval (Cmd.info d.prog) ~argv:(Array.of_list argv) ~help (term d) with
          | Ok (Some t) -> Ok t
          | Ok None -> Error "help requested"
          | Error m -> Error m))

(* -- running ---------------------------------------------------------------- *)

type functional =
  | Levels of int array
  | Ranks of float array
  | Checksum of float
  | Placements of string
  | Nothing

type outcome = {
  report : string;
  result : functional;
  value : float;
  stats : Engine.Stats.report option;
  traces : Engine.Trace.t list;
  sim_events : int;
}

let sched inst = inst.Systems.env.Workloads.Exec_env.sched

let instance t =
  let charm_config =
    if t.energy_weight > 0.0 || t.power_cap_mw > 0.0 then
      Some
        { Charm.Config.default with energy_weight = t.energy_weight; power_cap_mw = t.power_cap_mw }
    else None
  in
  let inst = Systems.make ?charm_config ~cache_scale:t.cache_scale t.sys t.machine ~n_workers:t.workers () in
  (* CHARM's runtime flips the meter on for a cap or weight; bare --energy
     (or a non-CHARM system) turns accounting on here *)
  if t.energy || t.energy_weight > 0.0 || t.power_cap_mw > 0.0 then
    Engine.Sched.set_energy (sched inst) true;
  if t.check then Engine.Sched.set_check (sched inst) true;
  (match List.concat_map snd t.faults with
  | [] -> ()
  | schedule -> ignore (Faults.Injector.attach (sched inst) schedule : Faults.Injector.t));
  inst

(* [check_quiescent] ends with the machine's full invariant scan *)
let verify inst =
  Engine.Sched.check_quiescent (sched inst);
  Option.iter
    (fun rt -> Option.iter Charm.Power_cap.verify (Charm.Runtime.power_cap rt))
    inst.Systems.charm

(* The last Kronecker edge list, by seed and scale: a figure runs dozens
   of kernels on one graph, and generating it takes ~0.1 s at scale 14.
   The CSR built from it is allocated afresh in each run's memory. *)
let kronecker_memo = ref None

let kernel_graph env t ~weighted =
  let key = (t.seed, t.graph_scale) in
  let kron =
    match !kronecker_memo with
    | Some (k, kron) when k = key -> kron
    | _ ->
        let kron = Workloads.Kronecker.generate ?seed:t.seed ~scale:t.graph_scale ~edge_factor:16 () in
        kronecker_memo := Some (key, kron);
        kron
  in
  let alloc ~elt_bytes ~count = env.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
  Workloads.Csr.of_kronecker ~weighted ~alloc kron

let bfs_source g =
  let rec go v = if v >= g.Workloads.Csr.n - 1 || Workloads.Csr.degree g v > 0 then v else go (v + 1) in
  go 0

(* Fig. 9's streamcluster input: one batch of 16384 points in 128
   dimensions, 8 MiB of points *)
let streamcluster_params =
  { Workloads.Streamcluster.points = 16384; dims = 128; batch = 16384; k_max = 12; search_rounds = 4; seed = 5 }

(* Run a batch kernel, print its lines to [out] and return its functional
   result and its {!outcome} value. *)
let run_kernel out env t ~kernel ~query =
  let open Workloads in
  let line fmt = Printf.bprintf out fmt in
  let alloc ~elt_bytes ~count = env.Exec_env.alloc_shared ~elt_bytes ~count in
  (* a seed reseeds every input generator; absent, each keeps its built-in
     default *)
  let seed = t.seed in
  let seeded default mk = match seed with None -> default | Some s -> mk s in
  let graph ~weighted = kernel_graph env t ~weighted in
  let rate r = Workload_result.throughput_per_s r in
  match kernel with
  | Bfs ->
      let g = graph ~weighted:false in
      let levels, r = Bfs.run env g ~source:(bfs_source g) in
      line "BFS: %.3e edges/s\n" (rate r);
      (Levels levels, rate r)
  | Pagerank ->
      let ranks, r = Pagerank.run env (graph ~weighted:false) () in
      line "PageRank: %.3e edge-updates/s\n" (rate r);
      (Ranks ranks, rate r)
  | Cc ->
      let _, r = Concomp.run env (graph ~weighted:false) in
      line "CC: %.3e edges/s\n" (rate r);
      (Nothing, rate r)
  | Sssp ->
      let g = graph ~weighted:true in
      let _, r = Sssp.run env g ~source:(bfs_source g) in
      line "SSSP: %.3e relaxations/s\n" (rate r);
      (Nothing, rate r)
  | Gups ->
      (* the table grows with the graph scale, as Fig. 10's sweep grows
         the graphs *)
      let p = { Gups.default_params with Gups.table_words = 1 lsl (t.graph_scale + 6) } in
      let r = Gups.run env (seeded p (fun s -> { p with Gups.seed = s })) in
      line "GUPS: %.4f giga-updates/s\n" (Gups.gups r);
      (Nothing, rate r)
  | Graph500 ->
      let g = graph ~weighted:false in
      let p = { Graph500.default_params with Graph500.scale = t.graph_scale; roots = 2 } in
      let r = Graph500.run env g (seeded p (fun s -> { p with Graph500.seed = s })) in
      line "Graph500: %.3e TEPS\n" (Graph500.teps r);
      (Nothing, rate r)
  | Streamcluster ->
      let p = seeded streamcluster_params (fun s -> { streamcluster_params with Streamcluster.seed = s }) in
      let o = Streamcluster.run env p in
      line "Streamcluster: %.3e point-center evals/s (cost %.1f, %d centers)\n"
        (rate o.Streamcluster.result) o.Streamcluster.total_cost o.Streamcluster.centers_opened;
      (Nothing, o.Streamcluster.result.Workload_result.makespan_ns)
  | Sgd ->
      let samples = 1024 in
      let data = Dataset.generate ~alloc ?seed ~samples ~features:1024 () in
      (* DimmWitted's own engine hands each core one coarse chunk *)
      let grain = if t.sys = Systems.Dw_native then Some (max 1 (samples / t.workers)) else None in
      let o = Dimmwitted.run env ~replica:Sgd.Per_node ?grain data in
      Buffer.add_string out (Format.asprintf "%a@." Dimmwitted.pp o);
      (Nothing, o.Dimmwitted.gradient_gbps)
  | Tpch ->
      let data = Olap.Tpch_data.generate ~alloc ?seed ~sf:0.01 () in
      let qs = match query with Some q -> [ q ] | None -> Olap.Tpch_queries.query_numbers in
      let checksums =
        List.map
          (fun q ->
            let r, t = Olap.Tpch_queries.execute env data q in
            line "Q%-2d: %8.3f ms  checksum %.6e (%d groups)\n" q (t /. 1e6)
              r.Olap.Tpch_queries.checksum r.Olap.Tpch_queries.rows_out;
            r.Olap.Tpch_queries.checksum)
          qs
      in
      ((match checksums with [ c ] -> Checksum c | _ -> Nothing), 0.0)
  | Ycsb ->
      let p = seeded Oltp.Ycsb.default_params (fun s -> { Oltp.Ycsb.default_params with Oltp.Ycsb.seed = s }) in
      let o = Oltp.Ycsb.run env p in
      line "YCSB: %.3e commits/s (%d commits)\n" o.Oltp.Ycsb.commits_per_second o.Oltp.Ycsb.commits;
      (Nothing, o.Oltp.Ycsb.commits_per_second)
  | Tpcc ->
      let p = seeded Oltp.Tpcc.default_params (fun s -> { Oltp.Tpcc.default_params with Oltp.Tpcc.seed = s }) in
      let o = Oltp.Tpcc.run env p in
      line "TPC-C: %.3e commits/s (%d new orders)\n" o.Oltp.Tpcc.commits_per_second o.Oltp.Tpcc.new_orders;
      (Nothing, o.Oltp.Tpcc.commits_per_second)
  | Dag ->
      (* one inference DAG per shape under both mappers, so the comm-aware
         advantage is visible from the CLI *)
      let topo = Chipsim.Machine.topology (Exec_env.machine env) in
      let usable =
        let hosted =
          List.filter
            (fun ch ->
              List.exists
                (fun core -> Engine.Sched.worker_of_core env.Exec_env.sched core <> None)
                (Topology.cores_of_chiplet topo ch))
            (List.init (Topology.num_chiplets topo) Fun.id)
        in
        match hosted with [] -> None | l -> Some (Array.of_list l)
      in
      List.iter
        (fun shape ->
          let g =
            Taskgraph.Graph.generate ~shape ~layers:6 ~seed:(Option.value seed ~default:7) ()
          in
          line "DAG %-12s (%d nodes, %d edges):" (Taskgraph.Graph.name g)
            (Taskgraph.Graph.num_nodes g) (Taskgraph.Graph.num_edges g);
          List.iter
            (fun policy ->
              let m = Mapper.map ?usable topo ~policy g in
              let span = ref 0.0 in
              ignore
                (Exec_env.run env (fun ctx -> span := (Taskgraph.Exec.run ctx m g).Taskgraph.Exec.span_ns)
                  : float);
              line "  %s %.1f us (cut %d KiB)" (Mapper.policy_name policy) (!span /. 1e3)
                (m.Mapper.cross_bytes / 1024))
            Mapper.all_policies;
          line "\n")
        Taskgraph.Graph.all_shapes;
      (Nothing, 0.0)

let server_config ?on_complete t s ~trace =
  let seed = Option.value t.seed ~default:42 in
  let process =
    match s.closed_loop with
    | Some clients -> Serving.Arrivals.Closed_loop { clients; think_ns = s.think_us *. 1e3 }
    | None -> Serving.Arrivals.Open_loop { rate_per_s = s.rate }
  in
  let tenants =
    List.map
      (fun te ->
        {
          Server.name = te.name;
          weight = te.weight;
          slo_factor = s.slo_factor;
          process;
          jobs = s.jobs;
          mix = List.map (fun k -> (k, 1)) te.mix;
          replicas = te.replicas;
        })
      s.tenants
  in
  {
    Server.tenants;
    admission =
      {
        Serving.Admission.max_queue_per_tenant = s.queue_bound;
        max_global_queue = s.queue_bound * max 2 (List.length tenants);
      };
    max_inflight = s.max_inflight;
    seed;
    data =
      {
        Job.graph_scale = t.graph_scale;
        dag_comm_aware = s.dag_mapper = Mapper.Comm_aware;
        seed = seed + 1;
      };
    trace;
    on_complete;
    check = t.check;
  }

let with_plant t f =
  let outer = Invariant.plant () in
  Invariant.set_plant t.plant;
  Fun.protect ~finally:(fun () -> Invariant.set_plant outer) f

let serve ?trace ?on_complete t =
  match t.workload with
  | Serve s ->
      with_plant t (fun () ->
          let inst = instance t in
          let report = Server.run inst (server_config ?on_complete t s ~trace) in
          if t.check then verify inst;
          (inst, report))
  | Batch _ | Fleet _ -> invalid_arg "Experiment.serve: not a single-machine serving experiment"

let fleet ?trace t =
  match t.workload with
  | Fleet (s, f) ->
      with_plant t (fun () ->
          Fleet.Cluster.run
            {
              Fleet.Cluster.n_shards = f.shards;
              sys = t.sys;
              machines = (if f.shard_machines = [] then [ t.machine ] else f.shard_machines);
              n_workers = t.workers;
              cache_scale = t.cache_scale;
              policy = f.router;
              epoch_us = f.epoch_us;
              serve = server_config t s ~trace:None;
              diurnal_amplitude = f.diurnal;
              diurnal_period_us = f.diurnal_period_us;
              faults = t.faults;
              relocation = f.relocation;
              trace = Option.is_some trace;
            })
  | Batch _ | Serve _ -> invalid_arg "Experiment.fleet: not a fleet experiment"

let run_workload ?trace t =
  match t.workload with
  | Batch { kernel; query } ->
      let inst = instance t in
      Option.iter (Systems.attach_trace inst) trace;
      let out = Buffer.create 1024 in
      Printf.bprintf out "system=%s machine=[%s] workers=%d cache-scale=%d\n"
        (Systems.sys_name t.sys)
        (Format.asprintf "%a" Topology.pp (Chipsim.Machine.topology inst.Systems.machine))
        t.workers t.cache_scale;
      let result, value = run_kernel out inst.Systems.env t ~kernel ~query in
      if t.check then verify inst;
      let stats = Systems.report inst in
      Buffer.add_string out (Format.asprintf "---@.%a@." Engine.Stats.pp stats);
      {
        report = Buffer.contents out;
        result;
        value;
        stats = Some stats;
        traces = Option.to_list trace;
        sim_events = Engine.Stats.sim_events inst.Systems.machine;
      }
  | Serve _ ->
      let inst, report = serve ?trace t in
      {
        report = Server.report_to_json report ^ "\n";
        result = Nothing;
        value = 0.0;
        stats = Some (Systems.report inst);
        traces = Option.to_list trace;
        sim_events = Engine.Stats.sim_events inst.Systems.machine;
      }
  | Fleet _ ->
      let res = fleet ?trace t in
      {
        report = Fleet.Cluster.result_to_json res ^ "\n";
        result = Placements res.Fleet.Cluster.placement_log;
        value = 0.0;
        stats = None;
        traces = res.Fleet.Cluster.traces;
        sim_events = Fleet.Cluster.sim_events res;
      }

let run ?trace t = with_plant t (fun () -> run_workload ?trace t)

(* -- the command line ------------------------------------------------------ *)

let cli d ~doc =
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON of the run (task quanta, steals, \
             parks, migrations, policy decisions, job lifecycle instants, \
             fleet routing) to $(docv); deterministic for a fixed seed. A \
             summary goes to stderr.")
  in
  let t, trace_file =
    parse_argv (Cmd.info d.prog ~doc ~exits) Term.(const (fun t f -> (t, f)) $ term d $ trace_file)
  in
  let t0 = Unix.gettimeofday () in
  match run ?trace:(Option.map (fun _ -> Engine.Trace.create ()) trace_file) t with
  | exception Invalid_argument msg ->
      (* a configuration the simulator rejects: a user error, not a crash *)
      Printf.eprintf "%s: %s\n" d.prog msg;
      exit 2
  | exception Invariant.Violation msg ->
      Printf.eprintf "%s: INVARIANT VIOLATION: %s\n" d.prog msg;
      exit 3
  | o ->
      let wall = Unix.gettimeofday () -. t0 in
      print_string o.report;
      (match t.workload with
      | Batch _ ->
          Printf.printf "engine: %d simulated events in %.3fs (%.3g events/s end-to-end)\n"
            o.sim_events wall
            (float_of_int o.sim_events /. Float.max 1e-9 wall)
      | Serve _ | Fleet _ -> ());
      (match (trace_file, o.traces) with
      | Some file, [ tr ] ->
          Engine.Trace.save tr file;
          Printf.eprintf "wrote %d trace events to %s (load in chrome://tracing)\n%s"
            (Engine.Trace.num_events tr) file (Engine.Trace.summary tr)
      | Some file, (_ :: _ as trs) ->
          Engine.Trace.save_merged trs file;
          Printf.eprintf "wrote %d trace events (%d tracks) to %s (load in chrome://tracing)\n"
            (List.fold_left (fun acc tr -> acc + Engine.Trace.num_events tr) 0 trs)
            (List.length trs) file
      | _ -> ());
      exit 0
