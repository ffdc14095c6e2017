module Systems = Harness.Systems
module Schedule = Faults.Schedule
module Gen = QCheck.Gen
module E = Experiment
open Chipsim

type mode = Smoke | Deep

(* -- generation ---------------------------------------------------------- *)

let batch_workloads =
  E.[ Bfs; Pagerank; Tpch (Some 1); Tpch (Some 3); Tpch (Some 6); Gups ]

let serve_kind_pool =
  Serving.Job.
    [
      Bfs; Pagerank; Gups 512; Gups 2048; Tpch 1; Tpch 3; Tpch 6; Ycsb_batch 64;
      Dag (Taskgraph.Graph.Chain, 4);
      Dag (Taskgraph.Graph.Inception, 3);
      Dag (Taskgraph.Graph.Fanout, 4);
    ]

let tenant_names = [ "gold"; "silver"; "bronze" ]

let gen_tenant i =
  let open Gen in
  let* weight = oneofl [ 1.0; 2.0; 4.0 ] in
  let* nkinds = int_range 1 3 in
  let* mix = list_repeat nkinds (oneofl serve_kind_pool) in
  let* replicas = frequencyl [ (3, 1); (1, 2); (1, 3) ] in
  return { E.name = List.nth tenant_names i; weight; mix; replicas }

(* a serving mix plus the experiment-level knobs drawn with it: graph
   scale, EDP weight and power cap *)
let gen_serve mode =
  let open Gen in
  let max_gs = match mode with Smoke -> 7 | Deep -> 9 in
  let* jobs = int_range 2 (match mode with Smoke -> 10 | Deep -> 24) in
  let* rate_k = int_range 2 20 in
  let* max_inflight = int_range 1 4 in
  let* queue_bound = int_range 1 8 in
  let* graph_scale = int_range 5 (min 8 max_gs) in
  let* energy_weight = oneofl [ 0.0; 0.0; 0.5; 2.0 ] in
  let* power_cap = oneofl [ 0.0; 0.0; 2.0; 10.0 ] in
  let* ntenants = int_range 1 (match mode with Smoke -> 2 | Deep -> 3) in
  let* tenants = flatten_l (List.init ntenants gen_tenant) in
  let serve =
    {
      E.default_serve with
      arrival = Open_loop (float_of_int (rate_k * 1000));
      jobs;
      max_inflight;
      queue_bound;
      tenants;
    }
  in
  return (serve, graph_scale, energy_weight, power_cap)

(* the workload with its graph scale, energy knobs and (fleets only)
   per-shard fault schedules *)
let gen_workload mode ~machine ~cache_scale =
  let open Gen in
  let max_gs = match mode with Smoke -> 7 | Deep -> 9 in
  frequencyl [ (4, `Batch); (2, `Serve); (1, `Fleet) ] >>= function
  | `Batch ->
      let* kernel = oneofl batch_workloads in
      let* graph_scale = int_range 5 max_gs in
      return (E.Batch kernel, graph_scale, 0.0, 0.0, [])
  | `Serve ->
      let* serve, graph_scale, energy_weight, power_cap = gen_serve mode in
      return (E.Serve serve, graph_scale, energy_weight, power_cap, [])
  | `Fleet ->
      (* shards build their own runtimes, so the energy knobs are drawn
         (keeping the draw order) but not used *)
      let* serve, graph_scale, _, _ = gen_serve mode in
      let* shards = int_range 2 (match mode with Smoke -> 3 | Deep -> 4) in
      let* router = oneofl Fleet.Router.all_policies in
      let* epoch_us = oneofl [ 100.0; 250.0; 500.0 ] in
      let* diurnal = oneofl [ 0.0; 0.0; 0.6 ] in
      let* relocation = bool in
      let* nfaulted =
        frequencyl
          (match mode with
          | Smoke -> [ (2, 0); (2, 1) ]
          | Deep -> [ (1, 0); (2, 1); (1, 2) ])
      in
      let* faults =
        if nfaulted = 0 then return []
        else
          let topo = Systems.topology machine ~cache_scale in
          let horizon_us = match mode with Smoke -> 2000.0 | Deep -> 20_000.0 in
          flatten_l
            (List.init nfaulted (fun _ ->
                 let* shard = int_range 0 (shards - 1) in
                 let* fault_seed = int_range 0 1_000_000 in
                 let* n = int_range 2 4 in
                 return (shard, Schedule.random ~topo ~seed:fault_seed ~n ~horizon_us)))
      in
      let fleet = { E.default_fleet with shards; router; epoch_us; diurnal; relocation } in
      return (E.Fleet (serve, fleet), graph_scale, 0.0, 0.0, faults)

(* random data-driven machine: small geometries so fuzz runs stay fast,
   kinds biased toward big so most cores keep baseline speed; sometimes a
   degraded I/O-die link on one chiplet.  Guaranteed >= 4 cores. *)
let gen_custom_machine =
  let open Gen in
  let* sockets = oneofl [ 1; 2 ] in
  let* chiplets_per_socket = oneofl [ 2; 4 ] in
  let* cores_per_chiplet = oneofl [ 2; 4 ] in
  let* chiplet_group_size =
    oneofl (if chiplets_per_socket = 4 then [ 1; 2; 4 ] else [ 1; 2 ])
  in
  let nchiplets = sockets * chiplets_per_socket in
  let* kinds =
    flatten_l
      (List.init nchiplets (fun _ ->
           frequencyl
             [ (3, Topology.Big); (2, Topology.Little); (1, Topology.Accel) ]))
  in
  let* l2_kib = oneofl [ 16; 32; 64 ] in
  let* l3_kib = oneofl [ 512; 1024 ] in
  let* slow_link = frequencyl [ (2, None); (1, Some ()) ] in
  let* slow_chiplet = int_range 0 (nchiplets - 1) in
  let links = Array.make nchiplets Topology.default_link in
  (match slow_link with
  | Some () ->
      links.(slow_chiplet) <-
        { Topology.lat_mult = 1.5; bw_bytes_per_ns = 2.0 }
  | None -> ());
  let topo =
    Topology.v ~chiplet_group_size ~l3_bytes_per_chiplet:(l3_kib * 1024)
      ~l2_bytes_per_core:(l2_kib * 1024) ~mem_channels_per_socket:2
      ~chiplet_kinds:(Array.of_list kinds) ~links ~sockets ~chiplets_per_socket
      ~cores_per_chiplet ()
  in
  (* named as an inline --topology spec is, so the repro replays it
     under the same name *)
  return (Systems.Custom { name = "custom"; topo })

(* Votes are judged against the known-good result, so an armed
   corruption must land where the vote can mask it: replica 1 of 2 (the
   tie goes to the honest primary) or one replica of 3.  A replica group
   clamps to the chiplets hosting workers when it is dispatched, and a
   group clamped to one replica cannot mask its corruption: --check
   rightly fails that run.  So the fuzzer arms corruption only where the
   workers sit on 2 or more chiplets for the whole run.  More workers
   than a chiplet has cores always do, wherever they move.  Fewer do
   when their system pins them ({!Systems.pinned_cores}) to 2 or more
   chiplets and no chiplet can run out of free cores: a worker whose
   core goes offline moves to the nearest free online core, which is on
   its own chiplet while one is left. *)
let is_corruption { Schedule.kind; _ } =
  match kind with Schedule.Corruption _ -> true | _ -> false

let count_faults p (t : E.t) =
  List.fold_left (fun n (_, evs) -> n + List.length (List.filter p evs)) 0 t.faults

let workers_span_chiplets (t : E.t) =
  let topo = Systems.topology t.machine ~cache_scale:t.cache_scale in
  let cpc = topo.Topology.cores_per_chiplet in
  t.workers > cpc
  ||
  match Systems.pinned_cores t.sys t.machine ~cache_scale:t.cache_scale ~n_workers:t.workers with
  | None -> false
  | Some cores ->
      let on_chiplet = Array.make (Topology.num_chiplets topo) 0 in
      Array.iter
        (fun c ->
          let ch = Topology.chiplet_of_core topo c in
          on_chiplet.(ch) <- on_chiplet.(ch) + 1)
        cores;
      let core_offs =
        count_faults
          (fun { Schedule.kind; _ } ->
            match kind with Schedule.Core_off _ -> true | _ -> false)
          t
      in
      Array.fold_left (fun n k -> if k > 0 then n + 1 else n) 0 on_chiplet >= 2
      && Array.fold_left max 0 on_chiplet + core_offs <= cpc

let corruption_maskable t = count_faults is_corruption t = 0 || workers_span_chiplets t

let gen ~mode ~seed =
  let open Gen in
  let* machine =
    let presets =
      match mode with
      | Smoke -> [ Systems.Amd_milan_1s ]
      | Deep -> [ Systems.Amd_milan_1s; Systems.Amd_milan; Systems.Intel_spr ]
    in
    frequency [ (4, oneofl presets); (1, gen_custom_machine) ]
  in
  let* sys =
    oneofl
      (match mode with
      | Smoke -> [ Systems.Charm; Systems.Ring; Systems.Os_default ]
      | Deep ->
          [
            Systems.Charm; Systems.Charm_os_threads; Systems.Ring;
            Systems.Shoal; Systems.Asymsched; Systems.Os_default;
          ])
  in
  let* cache_scale = oneofl [ 16; 32; 64 ] in
  let* workers = int_range 2 (match mode with Smoke -> 6 | Deep -> 12) in
  (* custom machines can be tiny (4 cores); presets always have >= 48 *)
  let workers =
    min workers (Topology.num_cores (Systems.topology machine ~cache_scale))
  in
  let* workload, graph_scale, energy_weight, power_cap_mw, fleet_faults =
    gen_workload mode ~machine ~cache_scale
  in
  let single = match workload with E.Fleet _ -> false | E.Batch _ | E.Serve _ -> true in
  let* fault_n =
    if not single then return 0
    else
      frequencyl
        (match mode with
        | Smoke -> [ (3, 0); (2, 2); (2, 4); (1, 6) ]
        | Deep -> [ (2, 0); (2, 3); (2, 6); (1, 12) ])
  in
  let* fault_seed = int_range 0 1_000_000 in
  let random_faults =
    if fault_n = 0 then []
    else
      let topo = Systems.topology machine ~cache_scale in
      let horizon_us = match mode with Smoke -> 2000.0 | Deep -> 20_000.0 in
      Schedule.random ~topo ~seed:fault_seed ~n:fault_n ~horizon_us
  in
  (* corruption events live outside [Schedule.random]'s pool (adding them
     there would reshuffle every existing fuzz seed); armed seeds that no
     replica ever consumes are harmless *)
  let* n_corrupt = if not single then return 0 else frequencyl [ (4, 0); (2, 1); (1, 3) ] in
  (* seeds of 3 mod 6 make the victim replica 1 in a group of 2 and
     replica 0 in a group of 3, which is what the vote-skip plant needs
     to trip; see [corruption_maskable] for why never replica 0 of 2 *)
  let* corrupt_seeds =
    list_repeat n_corrupt (map (fun s -> (6 * s) + 3) (int_range 0 1_000_000))
  in
  let on_machine = function [] -> [] | schedule -> [ (0, schedule) ] in
  let corruptions =
    List.map (fun s -> { Schedule.at_ns = 0.0; kind = Schedule.Corruption { seed = s } }) corrupt_seeds
  in
  let t =
    {
      E.sys;
      machine;
      workers;
      cache_scale;
      seed = Some seed;
      graph_scale;
      faults = (if single then on_machine (corruptions @ random_faults) else fleet_faults);
      energy = false;
      energy_weight;
      power_cap_mw;
      check = true;
      workload;
    }
  in
  return (if corruption_maskable t then t else { t with faults = on_machine random_faults })

let generate ~mode ~seed =
  let rand =
    Random.State.make
      [| 0x5ca1ab1e; seed; (match mode with Smoke -> 0 | Deep -> 1) |]
  in
  Gen.generate1 ~rand (gen ~mode ~seed)

(* -- oracles ------------------------------------------------------------- *)

(* every fuzzed run is traced, so the trace joins the determinism oracle *)
let run t = E.run ~trace:(Engine.Trace.create ()) t

type failure = { oracle : string; detail : string }

let fn_digest = function
  | E.Levels ls | E.Labels ls | E.Distances ls ->
      String.concat "," (Array.to_list (Array.map string_of_int ls))
  | E.Ranks rs -> String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") rs))
  | E.Checksum c -> Printf.sprintf "%.17g" c
  | E.Placements log -> log
  | E.Nothing -> ""

let trace_digest (o : E.outcome) = Engine.Trace.to_chrome_json o.traces

let first_difference a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  let i = go 0 in
  let ctx s =
    String.sub s (max 0 (i - 30)) (min 60 (String.length s - max 0 (i - 30)))
  in
  Printf.sprintf "first divergence at byte %d: %S vs %S (lengths %d / %d)" i
    (ctx a) (ctx b) (String.length a) (String.length b)

(* scheduling must never change results.  The graph kernels' results are
   audited against their sequential references inside the run (every
   fuzzed experiment is checked); a TPC-H query's checksum is compared
   here with a fresh single-worker run.  GUPS has no functional output;
   serving runs are covered by the determinism and invariant oracles
   only (admission outcomes legitimately depend on timing). *)
let reference_failure (t : E.t) fn =
  match (t.workload, fn) with
  | E.Batch (E.Tpch (Some q)), E.Checksum c ->
      let expected =
        match (E.run { t with workers = 1; faults = []; check = false }).result with
        | E.Checksum e -> e
        | _ -> nan
      in
      let tol = 1e-4 +. (1e-7 *. Float.max (abs_float c) (abs_float expected)) in
      if abs_float (c -. expected) <= tol then None
      else
        Some
          {
            oracle = "reference/tpch";
            detail =
              Printf.sprintf "Q%d checksum %.9e differs from single-worker run %.9e" q c
                expected;
          }
  | _ -> None

let check t =
  let guard f =
    match f () with
    | v -> Ok v
    | exception Chipsim.Invariant.Violation msg -> Error { oracle = "invariant"; detail = msg }
    | exception e -> Error { oracle = "crash"; detail = Printexc.to_string e }
  in
  match guard (fun () -> run t) with
  | Error f -> Some f
  | Ok o1 -> (
      match guard (fun () -> run t) with
      | Error f -> Some f
      | Ok o2 -> (
          let differ oracle a b =
            if a = b then None else Some { oracle; detail = first_difference a b }
          in
          match
            List.find_map Fun.id
              [
                differ "determinism/report" o1.report o2.report;
                differ "determinism/trace" (trace_digest o1) (trace_digest o2);
                differ "determinism/result" (fn_digest o1.result) (fn_digest o2.result);
              ]
          with
          | Some f -> Some f
          | None -> (
              match guard (fun () -> reference_failure t o1.result) with
              | Ok f -> f
              | Error f -> Some f)))

(* -- shrinking ----------------------------------------------------------- *)

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l
let remove_nth n l = List.filteri (fun i _ -> i <> n) l

let sanitize_faults ~topo faults =
  let cores = Topology.num_cores topo in
  let chiplets = Topology.num_chiplets topo in
  let nodes = topo.Topology.sockets in
  List.filter
    (fun { Schedule.kind; _ } ->
      match kind with
      | Schedule.Core_off c | Schedule.Core_on c -> c < cores
      | Schedule.Dvfs { core; _ } -> core < cores
      | Schedule.L3_ways { chiplet; _ } | Schedule.Link { chiplet; _ } ->
          chiplet < chiplets
      | Schedule.Xsocket _ | Schedule.Corruption _ | Schedule.Plant _ -> true
      | Schedule.Membw { node; _ } -> node < nodes)
    faults

let shrink_serve (t : E.t) (s : E.serve) ~with_serve add =
  let set s' = add (with_serve s') in
  if List.length s.tenants > 1 then set { s with tenants = [ List.hd s.tenants ] };
  (match s.tenants with
  | [ te ] when List.length te.mix > 1 -> set { s with tenants = [ { te with mix = [ List.hd te.mix ] } ] }
  | _ -> ());
  if s.jobs > 1 then set { s with jobs = max 1 (s.jobs / 2) };
  if s.max_inflight > 1 then set { s with max_inflight = 1 };
  if s.queue_bound > 1 then set { s with queue_bound = 1 };
  if t.graph_scale > 5 then add { t with graph_scale = t.graph_scale - 1 };
  if t.energy_weight > 0.0 then add { t with energy_weight = 0.0 };
  if t.power_cap_mw > 0.0 then add { t with power_cap_mw = 0.0 };
  if List.exists (fun (te : E.tenant) -> te.replicas > 1) s.tenants then
    set { s with tenants = List.map (fun (te : E.tenant) -> { te with replicas = 1 }) s.tenants }

let shrink (t : E.t) =
  let cands = ref [] in
  let add c = if c <> t && corruption_maskable c then cands := c :: !cands in
  (match (t.workload, List.concat_map snd t.faults) with
  | E.Fleet _, _ | _, [] -> ()
  | _, evs ->
      let n = List.length evs in
      let on_machine evs = { t with faults = [ (0, evs) ] } in
      add { t with faults = [] };
      if n >= 2 then begin
        add (on_machine (take (n / 2) evs));
        add (on_machine (drop (n / 2) evs))
      end;
      if n <= 8 then List.iteri (fun i _ -> add (on_machine (remove_nth i evs))) evs);
  if t.workers > 2 then begin
    add { t with workers = max 2 (t.workers / 2) };
    add { t with workers = t.workers - 1 }
  end;
  (match t.workload with
  | E.Batch _ -> if t.graph_scale > 5 then add { t with graph_scale = t.graph_scale - 1 }
  | E.Serve s -> shrink_serve t s ~with_serve:(fun s -> { t with workload = E.Serve s }) add
  | E.Fleet (s, f) ->
      let fleet f = { t with workload = E.Fleet (s, f) } in
      (* collapse the fleet tier entirely first — if the bug reproduces on
         a single machine the repro is much simpler *)
      add { t with workload = E.Serve s; faults = [] };
      (match t.faults with
      | [] -> ()
      | [ _ ] -> add { t with faults = [] }
      | evs ->
          add { t with faults = [] };
          List.iteri (fun i _ -> add { t with faults = remove_nth i evs }) evs);
      if f.shards > 2 then
        add
          {
            (fleet { f with shards = f.shards - 1 }) with
            (* keep fault shard indices in range for the smaller fleet *)
            faults = List.filter (fun (sh, _) -> sh < f.shards - 1) t.faults;
          };
      if f.diurnal > 0.0 then add (fleet { f with diurnal = 0.0 });
      if f.relocation then add (fleet { f with relocation = false });
      if f.router <> Fleet.Router.Round_robin then
        add (fleet { f with router = Fleet.Router.Round_robin });
      shrink_serve t s ~with_serve:(fun s -> { t with workload = E.Fleet (s, f) }) add);
  if t.machine <> Systems.Amd_milan_1s then begin
    let topo = Systems.topology Systems.Amd_milan_1s ~cache_scale:t.cache_scale in
    add
      {
        t with
        machine = Systems.Amd_milan_1s;
        faults = List.map (fun (sh, sch) -> (sh, sanitize_faults ~topo sch)) t.faults;
      }
  end;
  if t.sys <> Systems.Charm then add { t with sys = Systems.Charm };
  if t.cache_scale <> 16 then add { t with cache_scale = 16 };
  List.rev !cands
