(* Shared bench machinery: run experiments and record their rows, format
   paper-style tables. *)

module Sys_ = Harness.Systems

(* Optional trace sink shared by every instance a figure builds: set by
   bench's [--trace FILE] flag, passed to every {!run} (and attached by any
   figure that calls {!attach_trace} on its own instances), written once at
   the end of the run.  All experiments append to one ring, so the file
   holds the newest window across the whole bench invocation. *)
let trace_sink : Engine.Trace.t option ref = ref None

let attach_trace inst = Option.iter (Sys_.attach_trace inst) !trace_sink

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

(* Optional machine override: set by the driver's [--topology SPEC] flag.
   Figures route their preset through {!machine} when building instances,
   so one flag re-runs any figure on a data-driven topology. *)
let machine_override : Sys_.machine_kind option ref = ref None
let machine kind = match !machine_override with Some m -> m | None -> kind

(* A serving row's experiment: a charm_serve line, run on the --topology
   machine when one is set. *)
let serving line =
  let t = experiment line in
  { t with machine = machine t.machine }

(* Run a single-machine serving experiment through charm_serve's path,
   traced into the shared sink and observed by [on_complete]: its
   instance, report, simulated events and wall-clock seconds. *)
let serve ?on_complete t =
  let t0 = Unix.gettimeofday () in
  let inst, report = Experiment.serve ?trace:!trace_sink ?on_complete t in
  (inst, report, Engine.Stats.sim_events inst.Sys_.machine, Unix.gettimeofday () -. t0)

let latency (report : Serving.Server.report) tenant =
  (List.find (fun (tr : Serving.Server.tenant_report) -> tr.tenant = tenant) report.tenant_reports)
    .latency

let total f (report : Serving.Server.report) = List.fold_left (fun acc tr -> acc + f tr) 0 report.tenant_reports

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

let row fmt = Printf.printf fmt

(* The figures' rows: one run of an experiment each, keyed by what varies
   within a figure.  The spec replays the row through charm_run. *)
let figure_schema name =
  {
    Row.name;
    keys = [ "kernel"; "system"; "workers"; "graph_scale" ];
    gates = [ ("events", Row.Exact) ];
    columns = [ "value" ];
  }

(* How {!run} executes an experiment; a test swaps in a stub to list a
   figure's experiments without running them. *)
let runner = ref (fun t -> Experiment.run ?trace:!trace_sink t)

(* Run a batch experiment of [figure], traced into the shared sink, and
   record its row. *)
let run figure (t : Experiment.t) =
  let t0 = Unix.gettimeofday () in
  let o = !runner t in
  let wall = Unix.gettimeofday () -. t0 in
  (match t.workload with
  | Batch { kernel; _ } when !json_sink <> None ->
      emit
        (Row.make (figure_schema figure) ~spec:(Experiment.to_string t)
           [
             ("kernel", Key (Str (Experiment.kernel_name kernel)));
             ("system", Key (Str (Sys_.sys_name t.sys)));
             ("workers", Key (Int t.workers));
             ("graph_scale", Key (Int t.graph_scale));
             ("events", Sim (Int o.sim_events));
             ("value", Sim (Num o.value));
             ("wall_s", Host (Num wall));
           ])
  | _ -> ());
  o

let value figure t = (run figure t).value
let stats figure t = Option.get (run figure t).stats

(* The figures' base experiment: a batch kernel at the evaluation scale,
   where graphs of 2^14 vertices with caches scaled 1:16 keep the paper's
   working-set : L3 ratio at tractable runtime, on [machine] (or the
   --topology machine). *)
let base = experiment "charm_run --graph-scale 14"

let batch ?machine:(kind = Sys_.Amd_milan) ?(cache_scale = base.cache_scale) kernel sys ~workers =
  { base with sys; machine = machine kind; workers; cache_scale; workload = Batch { kernel; query = None } }

(* The graph suite of Figs. 7, 8 and 10 and Tab. 1, by table label *)
let graph_kernels =
  Experiment.[ ("BFS", Bfs); ("PR", Pagerank); ("CC", Cc); ("SSSP", Sssp); ("GUPS", Gups); ("Graph500", Graph500) ]

let pp_throughput t =
  if t >= 1e9 then Printf.sprintf "%.2fG" (t /. 1e9)
  else if t >= 1e6 then Printf.sprintf "%.2fM" (t /. 1e6)
  else Printf.sprintf "%.0fk" (t /. 1e3)
