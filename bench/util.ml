(* Shared bench machinery: build environments, run the six graph-suite
   workloads, format paper-style tables. *)

open Workloads
module Sys_ = Harness.Systems

(* Optional trace sink shared by every instance a figure builds: set by the
   driver's [--trace FILE] flag, attached by {!run_graph_bench} (and any
   figure that calls {!attach_trace} on its own instances), written once at
   the end of the run.  All experiments append to one ring, so the file
   holds the newest window across the whole bench invocation. *)
let trace_sink : Engine.Trace.t option ref = ref None

let attach_trace inst =
  match !trace_sink with
  | None -> ()
  | Some tr -> (
      match inst.Sys_.charm with
      | Some rt -> Charm.Runtime.attach_trace rt tr
      | None ->
          Engine.Sched.set_trace inst.Sys_.env.Exec_env.sched (Some tr))

(* Optional machine-readable sink: set by the driver's [--json FILE] flag;
   experiments emit typed rows ({!Row}) alongside their human tables, and
   the driver writes the file once at the end.  The committed BENCH_*.json
   baselines are such files, compared by [bench check]. *)
let json_sink : string option ref = ref None
let json_rows : Row.t list ref = ref []
let emit row = if !json_sink <> None then json_rows := row :: !json_rows

let json_write () =
  match !json_sink with
  | None -> ()
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (Row.to_json (List.rev !json_rows)));
      Printf.printf "\nwrote %d bench rows to %s\n" (List.length !json_rows) file

(* A bench row's experiment, written as the command line that replays it;
   a malformed line is a bug in the bench. *)
let experiment line =
  match Experiment.of_string line with
  | Ok t -> t
  | Error m -> failwith (Printf.sprintf "bench experiment %S: %s" line m)

(* Run a single-machine serving experiment through charm_serve's path,
   traced into the shared sink: its instance, report, simulated events and
   wall-clock seconds. *)
let serve t =
  let t0 = Unix.gettimeofday () in
  let inst, report = Experiment.serve ?trace:!trace_sink t in
  (inst, report, Engine.Stats.sim_events inst.Sys_.machine, Unix.gettimeofday () -. t0)

let latency (report : Serving.Server.report) tenant =
  (List.find (fun (tr : Serving.Server.tenant_report) -> tr.tenant = tenant) report.tenant_reports)
    .latency

let total f (report : Serving.Server.report) = List.fold_left (fun acc tr -> acc + f tr) 0 report.tenant_reports

(* Optional machine override: set by the driver's [--topology SPEC] flag.
   Figures route their preset through {!machine} when building instances,
   so one flag re-runs any figure on a data-driven topology. *)
let machine_override : Sys_.machine_kind option ref = ref None
let machine kind = match !machine_override with Some m -> m | None -> kind

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

let row fmt = Printf.printf fmt

(* Default evaluation scale: graphs at 2^13 vertices with caches scaled
   1:16 keep the paper's working-set : L3 ratio at tractable runtime. *)
let default_cache_scale = 16
let default_graph_scale = 14

type graph_bench = Bfs | Pr | Cc | Sssp | Gups_w | G500

let graph_bench_name = function
  | Bfs -> "BFS"
  | Pr -> "PR"
  | Cc -> "CC"
  | Sssp -> "SSSP"
  | Gups_w -> "GUPS"
  | G500 -> "Graph500"

let all_graph_benches = [ Bfs; Pr; Cc; Sssp; Gups_w; G500 ]

(* Edge lists are deterministic per scale; cache them across systems so
   every system sees the same graph. *)
let kron_cache : (int, Kronecker.t) Hashtbl.t = Hashtbl.create 8

let kron ~scale =
  match Hashtbl.find_opt kron_cache scale with
  | Some k -> k
  | None ->
      let k = Kronecker.generate ~scale ~edge_factor:16 () in
      Hashtbl.add kron_cache scale k;
      k

let build_graph env ~scale ~weighted =
  Csr.of_kronecker ~weighted
    ~alloc:(fun ~elt_bytes ~count -> env.Exec_env.alloc_shared ~elt_bytes ~count)
    (kron ~scale)

(* Throughput of one graph-suite workload in work-items per second of
   virtual time (edges/s for the graph algorithms, updates/s for GUPS). *)
let run_graph_bench ?(cache_scale = default_cache_scale)
    ?(graph_scale = default_graph_scale) ~sys ~kind ~workers bench =
  let inst = Sys_.make ~cache_scale sys (machine kind) ~n_workers:workers () in
  attach_trace inst;
  let env = inst.Sys_.env in
  let result =
    match bench with
    | Bfs ->
        let g = build_graph env ~scale:graph_scale ~weighted:false in
        snd (Bfs.run env g ~source:(Experiment.bfs_source g))
    | Pr ->
        let g = build_graph env ~scale:graph_scale ~weighted:false in
        snd (Pagerank.run env g ())
    | Cc ->
        let g = build_graph env ~scale:graph_scale ~weighted:false in
        snd (Concomp.run env g)
    | Sssp ->
        let g = build_graph env ~scale:graph_scale ~weighted:true in
        snd (Sssp.run env g ~source:(Experiment.bfs_source g))
    | Gups_w ->
        (* table size tracks the graph scale, as the paper's Fig. 10 sweep
           controls the number of vertices *)
        Gups.run env
          { Gups.table_words = 1 lsl (graph_scale + 6); updates = 1 lsl 16; seed = 17 }
    | G500 ->
        let g = build_graph env ~scale:graph_scale ~weighted:false in
        Graph500.run env g
          { Graph500.scale = graph_scale; edge_factor = 16; roots = 2; seed = 99 }
  in
  (Workload_result.throughput_per_s result, inst)

let sys_label sys = Sys_.sys_name sys

let pp_throughput t =
  if t >= 1e9 then Printf.sprintf "%.2fG" (t /. 1e9)
  else if t >= 1e6 then Printf.sprintf "%.2fM" (t /. 1e6)
  else Printf.sprintf "%.0fk" (t /. 1e3)
