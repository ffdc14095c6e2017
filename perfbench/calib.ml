(* Unit costs of single layer operations, from batched plain-loop timers.

   Each operation is warmed while its batch is sized (doubling until one
   batch lasts at least [min_batch_s]), then timed over [batches] batches;
   the reported cost is the median batch's ns per op.  Allocation per op
   comes from [Gc] word deltas.  Fill-class costs run on a machine laid
   out like the batch-graph workload's (Milan, caches scaled 1:16), each
   batch arranged so that one PMU fill class serves it; the PMU delta must
   confirm at least 95% of the timed accesses in that class. *)

open Chipsim
module Sys_ = Harness.Systems
module Sched = Engine.Sched

let now = Workload.now
let words = Workload.words
let min_batch_s = 0.002
let batches = 7

(* [f n] performs about [n] ops and returns how many it did *)
let per_op f =
  let run n =
    let t0 = now () in
    let ops = f n in
    (now () -. t0, ops)
  in
  let rec size n =
    let dt, _ = run n in
    if dt >= min_batch_s || n >= 1 lsl 24 then n else size (n * 2)
  in
  let n = size 256 in
  Stats.median
    (List.init batches (fun _ ->
         let dt, ops = run n in
         dt *. 1e9 /. float_of_int ops))

let repeat n f =
  for i = 1 to n do
    f i
  done;
  n

let topo_milan () = Sys_.topology Sys_.Amd_milan ~cache_scale:Workload.cache_scale
let first_core topo chiplet = List.hd (Topology.cores_of_chiplet topo chiplet)

(* -- fill classes ------------------------------------------------------- *)

type fill = { ns : float; words_per_access : float; in_class : float }

let lines_per_batch = 8192

(* [batch b] prepares batch [b] untimed and returns its timed access loop *)
let fill_class m ~events ~batch =
  let pmu = Machine.pmu m in
  let samples =
    List.init batches (fun b ->
        let timed = batch b in
        let before = Pmu.snapshot pmu in
        let w0 = words () in
        let t0 = now () in
        let n = timed () in
        let t1 = now () in
        let w1 = words () in
        let after = Pmu.snapshot pmu in
        let hits =
          List.fold_left (fun acc e -> acc + Pmu.delta_total ~before ~after e) 0 events
        in
        ( (t1 -. t0) *. 1e9 /. float_of_int n,
          (w1 -. w0) /. float_of_int n,
          float_of_int hits /. float_of_int n ))
  in
  {
    ns = Stats.median (List.map (fun (x, _, _) -> x) samples);
    words_per_access = Stats.median (List.map (fun (_, w, _) -> w) samples);
    in_class = List.fold_left (fun acc (_, _, f) -> Float.min acc f) 1.0 samples;
  }

let fill_classes () =
  let topo = topo_milan () in
  let m = Machine.create topo in
  let clk = [| 0.0 |] in
  let read_all core region ~lo ~hi =
    for i = lo to hi - 1 do
      Machine.access_clk m ~core ~write:false (Simmem.addr region i) clk 0
    done;
    hi - lo
  in
  let lines count = Machine.alloc m ~elt_bytes:topo.Topology.line_bytes ~count () in
  let k = lines_per_batch in
  let cpc = topo.Topology.chiplets_per_socket in
  let c0 = first_core topo 0 in
  (* L2: one core re-reads a set of lines that fits its private L2 *)
  let hot = lines 256 in
  ignore (read_all c0 hot ~lo:0 ~hi:256 : int);
  let l2 =
    fill_class m ~events:[ Pmu.L2_hit ] ~batch:(fun _ () ->
        for _ = 1 to k / 256 do
          ignore (read_all c0 hot ~lo:0 ~hi:256 : int)
        done;
        k)
  in
  (* local L3: chiplet 0's first core pulls the lines in; its siblings,
     private L2s cold, then find them in the shared slice *)
  let shared = lines k in
  ignore (read_all c0 shared ~lo:0 ~hi:k : int);
  let siblings = Array.of_list (Topology.cores_of_chiplet topo 0) in
  let l3 =
    fill_class m ~events:[ Pmu.L3_local_hit ] ~batch:(fun b () ->
        read_all siblings.(1 + (b mod (Array.length siblings - 1))) shared ~lo:0 ~hi:k)
  in
  (* remote chiplet: the socket's other chiplets each fill their own copy
     from a chiplet that already holds the lines *)
  let remote = lines k in
  ignore (read_all c0 remote ~lo:0 ~hi:k : int);
  let rc =
    fill_class m ~events:[ Pmu.Fill_remote_chiplet ] ~batch:(fun b () ->
        read_all (first_core topo (1 + (b mod (cpc - 1)))) remote ~lo:0 ~hi:k)
  in
  (* remote NUMA: fresh lines held only on socket 0, read from socket 1 *)
  let numa = lines (batches * k) in
  let rn =
    fill_class m ~events:[ Pmu.Fill_remote_numa ] ~batch:(fun b ->
        ignore (read_all c0 numa ~lo:(b * k) ~hi:((b + 1) * k) : int);
        fun () -> read_all (first_core topo (cpc + b)) numa ~lo:(b * k) ~hi:((b + 1) * k))
  in
  (* DRAM: lines no cache has ever held *)
  let cold = lines (batches * k) in
  let dram =
    fill_class m ~events:[ Pmu.Dram_local; Pmu.Dram_remote ] ~batch:(fun b () ->
        read_all c0 cold ~lo:(b * k) ~hi:((b + 1) * k))
  in
  [ ("l2_hit", l2); ("l3_local", l3); ("remote_chiplet", rc); ("remote_numa", rn); ("dram", dram) ]

(* -- chipsim components -------------------------------------------------- *)

let chipsim_ops () =
  let topo = topo_milan () in
  let cache = Cache.create ~size_bytes:topo.Topology.l3_bytes_per_chiplet ~line_bytes:64 () in
  ignore (Cache.access cache 42 : int);
  let hit =
    per_op (fun n -> repeat n (fun _ -> ignore (Sys.opaque_identity (Cache.access cache 42))))
  in
  let next = ref 1_000_000 in
  let miss =
    per_op (fun n ->
        repeat n (fun _ ->
            incr next;
            ignore (Sys.opaque_identity (Cache.access cache !next))))
  in
  let m = Machine.create topo in
  let elts = 1 lsl 15 and window = 4096 in
  let region = Machine.alloc m ~elt_bytes:8 ~count:elts () in
  let clk = [| 0.0 |] in
  let lines_per_window = window * 8 / topo.Topology.line_bytes in
  let off = ref 0 in
  let range =
    per_op (fun n ->
        let windows = max 1 (n / lines_per_window) in
        for _ = 1 to windows do
          let lo = !off land (elts - window) in
          Machine.touch_range_clk m ~core:0 ~write:false region ~lo ~hi:(lo + window) clk 0;
          off := !off + window
        done;
        windows * lines_per_window)
  in
  let cpc = topo.Topology.chiplets_per_socket in
  let t = ref 0.0 in
  let transfer =
    per_op (fun n ->
        repeat n (fun i ->
            t := !t +. 100.0;
            ignore
              (Sys.opaque_identity
                 (Machine.transfer m ~src_chiplet:0 ~dst_chiplet:(1 + (i mod (cpc - 1)))
                    ~now_ns:!t ~bytes:4096))))
  in
  let chan =
    Memchan.create ~nodes:2 ~channels_per_node:8 ~bytes_per_ns_per_channel:4.8
      ~line_bytes:64 ()
  in
  let charge =
    per_op (fun n ->
        repeat n (fun i ->
            t := !t +. 50.0;
            ignore
              (Sys.opaque_identity
                 (Memchan.charge_lines chan ~node:(i land 1) ~now_ns:!t ~base_ns:100.0
                    ~lines:64))))
  in
  let nchiplets = Topology.num_chiplets topo in
  let dir = Directory.create ~chiplets:nchiplets in
  for line = 0 to 4095 do
    Directory.add dir ~line ~chiplet:(line mod nchiplets);
    Directory.add dir ~line ~chiplet:(line * 7 mod nchiplets)
  done;
  let nearest =
    per_op (fun n ->
        repeat n (fun i ->
            ignore
              (Sys.opaque_identity
                 (Directory.nearest_holder_id topo dir ~line:(i land 4095)
                    ~from_chiplet:(i mod nchiplets)))))
  in
  [
    ("chipsim.cache.access_hit.ns", hit);
    ("chipsim.cache.access_miss.ns", miss);
    ("chipsim.machine.touch_range.ns_per_line", range);
    ("chipsim.machine.transfer.ns", transfer);
    ("chipsim.memchan.charge_lines.ns", charge);
    ("chipsim.directory.nearest_holder.ns", nearest);
  ]

(* -- engine ---------------------------------------------------------------- *)

let engine_ops () =
  let c =
    Engine.Coroutine.create (fun () ->
        while true do
          Engine.Coroutine.yield ()
        done)
  in
  (* one yield + one resume per op *)
  let switch =
    per_op (fun n ->
        repeat n (fun _ -> ignore (Sys.opaque_identity (Engine.Coroutine.resume c))))
  in
  let m = Machine.create (topo_milan ()) in
  let workers = 16 in
  let spawn_run =
    per_op (fun n ->
        let s = Sched.create m ~n_workers:workers ~placement:Fun.id in
        for _ = 1 to n do
          ignore (Sched.spawn s (fun _ -> ()) : Sched.task)
        done;
        ignore (Sched.run s : float);
        n)
  in
  (* every worker runs one task that yields after each slice of compute,
     so the event loop does one pick/resume/requeue per quantum *)
  let pmu = Machine.pmu m in
  let quantum =
    per_op (fun n ->
        let s = Sched.create m ~n_workers:workers ~placement:Fun.id in
        let before = Pmu.total pmu Pmu.Context_switch in
        for w = 0 to workers - 1 do
          ignore
            (Sched.spawn s ~worker:w (fun ctx ->
                 for _ = 1 to max 1 (n / workers) do
                   Sched.Ctx.work ctx 100.0;
                   Sched.Ctx.yield ctx
                 done)
              : Sched.task)
        done;
        ignore (Sched.run s : float);
        Pmu.total pmu Pmu.Context_switch - before)
  in
  let tr = Engine.Trace.create ~capacity:65536 () in
  let emit =
    per_op (fun n ->
        repeat n (fun i ->
            Engine.Trace.task_quantum tr ~worker:(i land 15) ~core:(i land 15) ~task_id:i
              ~start_ns:(float_of_int i) ~end_ns:(float_of_int (i + 1))))
  in
  [
    ("engine.coroutine.switch.ns", switch);
    ("engine.sched.spawn_run.ns", spawn_run);
    ("engine.sched.quantum.ns", quantum);
    ("engine.trace.emit.ns", emit);
  ]

(* -- core -------------------------------------------------------------------- *)

let core_ops () =
  let topo = topo_milan () in
  let m = Machine.create topo in
  let rt = Charm.Runtime.init m ~n_workers:32 in
  let policy = Charm.Runtime.policy rt and sched = Charm.Runtime.sched rt in
  let tick =
    per_op (fun n -> repeat n (fun i -> Charm.Policy.force_tick policy sched ~worker:(i land 31)))
  in
  let place =
    per_op (fun n ->
        repeat n (fun i ->
            ignore
              (Sys.opaque_identity
                 (Charm.Placement.core_of_worker topo ~spread_rate:8 ~n_workers:64
                    ~worker:(i land 63)))))
  in
  let pc = Charm.Power_cap.create (Machine.create topo) ~cap_mw:100_000.0 in
  let t = ref 0.0 in
  let cap =
    per_op (fun n ->
        repeat n (fun _ ->
            t := !t +. 500.0;
            ignore (Sys.opaque_identity (Charm.Power_cap.tick pc ~now_ns:!t))))
  in
  [
    ("core.policy.tick.ns", tick);
    ("core.placement.core_of_worker.ns", place);
    ("core.power_cap.tick.ns", cap);
  ]

(* -- serve, fleet, taskgraph ---------------------------------------------- *)

let serve_ops () =
  let open Serving in
  let h = Histogram.create () in
  let observe =
    per_op (fun n -> repeat n (fun i -> Histogram.observe h (float_of_int (i land 1023) *. 977.0)))
  in
  let reg = Metrics.create () in
  List.iter (fun k -> Metrics.incr reg k) [ "serve.submitted"; "serve.admitted"; "serve.shed" ];
  let incr = per_op (fun n -> repeat n (fun _ -> Metrics.incr reg "serve.completed")) in
  let fq = Fair_queue.create () in
  List.iter (fun (tenant, weight) -> Fair_queue.add_tenant fq ~tenant ~weight) [ (0, 2.0); (1, 1.0); (2, 1.0) ];
  for i = 0 to 63 do
    Fair_queue.push fq ~tenant:(i mod 3) ~cost:1000.0 i
  done;
  let push_pop =
    per_op (fun n ->
        repeat n (fun i ->
            Fair_queue.push fq ~tenant:(i mod 3) ~cost:(1000.0 +. float_of_int (i land 7)) i;
            ignore (Sys.opaque_identity (Fair_queue.pop fq))))
  in
  let decide =
    per_op (fun n ->
        repeat n (fun i ->
            ignore
              (Sys.opaque_identity
                 (Admission.decide Admission.default ~tenant_depth:(i land 63)
                    ~global_depth:(i land 255)))))
  in
  let tok = Replica.token ~job_seed:17 ~kind:"bfs" in
  let group = [| tok; Replica.corrupt tok ~seed:7; tok |] in
  let vote = per_op (fun n -> repeat n (fun _ -> ignore (Sys.opaque_identity (Replica.vote group)))) in
  [
    ("serve.histogram.observe.ns", observe);
    ("serve.metrics.incr.ns", incr);
    ("serve.fair_queue.push_pop.ns", push_pop);
    ("serve.admission.decide.ns", decide);
    ("serve.replica.vote.ns", vote);
  ]

let fleet_ops ~dag_topo =
  let router = Fleet.Router.create Fleet.Router.Charm_aware in
  let views =
    Array.init 4 (fun shard ->
        { Fleet.Router.shard; capacity = 1.0; sick_fraction = 0.0; load_ns = 0.0; depth = 0 })
  in
  let tenants = [| "infer"; "olap"; "graph" |] in
  let choose =
    per_op (fun n ->
        Array.iter
          (fun (v : Fleet.Router.view) ->
            v.Fleet.Router.load_ns <- 0.0;
            v.Fleet.Router.depth <- 0)
          views;
        repeat n (fun i ->
            ignore
              (Sys.opaque_identity
                 (Fleet.Router.choose router ~tenant:tenants.(i mod 3) ~cost:10_000.0 views)))
    )
  in
  let graphs =
    Array.init 24 (fun i ->
        let shape = List.nth Taskgraph.Graph.all_shapes (i mod 3) in
        Taskgraph.Graph.generate ~shape ~layers:6 ~seed:i ())
  in
  let map =
    per_op (fun n ->
        let nodes = ref 0 in
        for i = 0 to max 1 (n / 16) - 1 do
          let g = graphs.(i mod Array.length graphs) in
          let r = Taskgraph.Mapper.map dag_topo ~policy:Taskgraph.Mapper.Comm_aware g in
          ignore (Sys.opaque_identity r);
          nodes := !nodes + Taskgraph.Graph.num_nodes g
        done;
        !nodes)
  in
  [ ("fleet.router.choose.ns", choose); ("taskgraph.mapper.map.ns_per_node", map) ]

type t = { costs : (string * float) list; fills : (string * fill) list }

let run ~dag_topo =
  let fills = fill_classes () in
  let costs =
    chipsim_ops ()
    @ List.map (fun (c, f) -> ("chipsim.machine.access." ^ c ^ ".ns", f.ns)) fills
    @ [
        ( "chipsim.machine.access.words",
          Stats.median (List.map (fun (_, f) -> f.words_per_access) fills) );
      ]
    @ engine_ops () @ core_ops () @ serve_ops () @ fleet_ops ~dag_topo
  in
  List.iter
    (fun (c, f) ->
      if f.in_class < 0.95 then
        failwith
          (Printf.sprintf "calibration: only %.1f%% of the %s batch hit its class"
             (100.0 *. f.in_class) c))
    fills;
  { costs; fills }

(* the plain-loop figures ROADMAP item 2 quotes for the same calls *)
let roadmap_reference =
  [
    ("chipsim.cache.access_hit.ns", 5.0);
    ("chipsim.machine.access.l2_hit.ns", 22.0);
    ("engine.coroutine.switch.ns", 52.0);
  ]
