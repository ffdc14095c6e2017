(* Core engine throughput: simulated events/sec and wall-clock for three
   standard scenarios — a batch morsel scan, an online serving run and a
   small fleet.  This is the perf trajectory of the discrete-event core
   itself (scheduler event loop + per-access memory model): CI runs
   [bench core --json] and [bench check]s it against the committed
   BENCH_core.json baseline, so "measurably faster" (or slower) is visible
   per PR.

   A "simulated event" is one unit of discrete-event work the engine
   retired: a memory access charged through the machine model, a task
   quantum (context switch), a steal or a migration.  The count is
   deterministic per scenario (equal seeds), so only wall-clock varies
   across runs and machines; each scenario runs [reps] times on a fresh
   machine (cold caches, per the paper's methodology) and reports the best
   rep to damp scheduler noise.

   [minor_words_per_event] is what the scenario allocates on the OCaml
   minor heap per simulated event, set-up included, read with the exact
   [Gc.minor_words] ([Gc.quick_stat] only advances at minor collections
   on OCaml 5.1).  Blocks of more than 256 words go straight to the
   major heap and are not in it: a change that splits one large array
   into small ones can raise this column while the total falls.  It is
   shown but not gated: the compilers CI builds with allocate
   differently. *)

open Chipsim
module Sched = Engine.Sched
module Par = Engine.Par

let reps = 3
let cache_scale = 16

(* -- batch: morsel-driven scan + random updates + a fine-grain task storm
   on a bare scheduler (default hooks, no policy layer) — the least-
   advanced-worker loop, the deques and the per-access path with nothing
   else on top *)

let batch_rows = 1 lsl 19
let batch_scan_iters = 6
let batch_updates = 1 lsl 18
let batch_storm_tasks = 1 lsl 12

let run_batch () =
  let topo = Harness.Systems.topology (Util.machine Harness.Systems.Amd_milan) ~cache_scale in
  let machine = Machine.create topo in
  let sched = Sched.create machine ~n_workers:16 ~placement:(fun w -> w) in
  let region = Machine.alloc machine ~elt_bytes:8 ~count:batch_rows () in
  let t0 = Unix.gettimeofday () in
  ignore
    (Sched.spawn sched ~worker:0 (fun ctx ->
         (* phase 1: sequential morsel scans (range path, prefetch-friendly) *)
         for _ = 1 to batch_scan_iters do
           Par.parallel_for ctx ~lo:0 ~hi:batch_rows ~grain:2048
             (fun ctx' lo hi ->
               Sched.Ctx.read_range ctx' region ~lo ~hi;
               Sched.Ctx.work ctx' (0.6 *. float_of_int (hi - lo));
               Sched.Ctx.maybe_yield ctx')
         done;
         (* phase 2: scattered read-modify-writes (single-access path,
            directory + coherence traffic) *)
         Par.parallel_for ctx ~lo:0 ~hi:batch_updates ~grain:512
           (fun ctx' lo hi ->
             for i = lo to hi - 1 do
               let j = i * 0x9e3779b9 land (batch_rows - 1) in
               Sched.Ctx.read ctx' region j;
               Sched.Ctx.write ctx' region j;
               Sched.Ctx.maybe_yield ctx'
             done);
         (* phase 3: storm of tiny compute tasks (deque + steal pressure) *)
         Par.parallel_for ctx ~lo:0 ~hi:(batch_storm_tasks * 16) ~grain:16
           (fun ctx' lo hi ->
             Sched.Ctx.work ctx' (5.0 *. float_of_int (hi - lo))))
      : Sched.task);
  let makespan = Sched.run sched in
  let wall = Unix.gettimeofday () -. t0 in
  (Engine.Stats.sim_events machine, wall, makespan)

(* -- serve and fleet: charm_serve lines, carried in their rows -- one
   machine at a fixed load, and a small cluster (events summed over shards) *)

let run_serve t =
  let _, r, events, wall = Util.serve t in
  (events, wall, r.Serving.Server.makespan_ns)

let run_fleet t =
  let t0 = Unix.gettimeofday () in
  let res = Experiment.fleet t in
  let wall = Unix.gettimeofday () -. t0 in
  (Fleet.Cluster.sim_events res, wall, res.Fleet.Cluster.makespan_ns)

let scenarios () =
  let serving name line run =
    let t = Util.serving line in
    (name, Some (Experiment.to_string t), fun () -> run t)
  in
  [
    ("batch", None, run_batch);
    serving "serve" "charm_serve -n 16 --rate 10000" run_serve;
    serving "fleet" "charm_serve --fleet 2 -n 8 --rate 8000 --jobs 30" run_fleet;
  ]

(* the event count is deterministic, so any drift is a semantic change;
   events/s is wall-clock and runner-dependent, so it gates loosely *)
let schema =
  {
    Row.name = "core";
    keys = [ "scenario" ];
    gates = [ ("events", Row.Exact); ("events_per_s", Row.Min_ratio 0.8) ];
    columns = [ "minor_words_per_event" ];
  }

let run () =
  Util.section "Core - engine throughput (simulated events/sec per scenario)";
  Util.row "  %-8s %12s %9s %14s %12s %13s\n" "scenario" "events" "wall(s)"
    "events/sec" "makespan(us)" "minor w/event";
  List.iter
    (fun (name, spec, f) ->
      let best = ref None in
      let events0 = ref 0 in
      for _ = 1 to reps do
        let w0 = Gc.minor_words () in
        let events, wall, makespan = f () in
        let words = Gc.minor_words () -. w0 in
        if !events0 = 0 then events0 := events
        else if !events0 <> events then begin
          Printf.eprintf
            "bench core: %s event count not deterministic (%d vs %d)\n" name
            !events0 events;
          exit 1
        end;
        match !best with
        | Some (w, _, _) when w <= wall -> ()
        | _ -> best := Some (wall, makespan, words)
      done;
      let wall, makespan, words = Option.get !best in
      let eps = float_of_int !events0 /. Float.max 1e-9 wall in
      let wpe = words /. float_of_int (max 1 !events0) in
      Util.row "  %-8s %12d %9.3f %14.0f %12.1f %13.3f\n" name !events0 wall eps
        (makespan /. 1e3) wpe;
      Util.emit
        (Row.make schema ?spec
           [
             ("scenario", Key (Str name));
             ("events", Sim (Int !events0));
             ("wall_s", Host (Num wall));
             ("events_per_s", Host (Num eps));
             ("minor_words_per_event", Host (Num wpe));
             ("makespan_us", Sim (Num (makespan /. 1e3)));
           ]))
    (scenarios ())
