(* Execute a mapped task DAG on the engine.

   Every node becomes a task pinned to a worker resident on its mapped
   chiplet (falling back to the spawner's queue when the chiplet hosts
   none).  Nodes are spawned dataflow-style: the driver launches the
   sources, and each node, once finished, decrements its successors'
   pending-predecessor counts and spawns any that hit zero with
   [~at:(max predecessor finish)] — the scheduler's ready-time clamp then
   guarantees the successor's quantum cannot start earlier, even on a
   worker whose virtual clock lags.  (Awaiting predecessor tasks is not
   enough: awaiting an already-finished task is a no-op and leaves the
   waiter's clock wherever it was.)

   A node first pulls each incoming edge's bytes across the chiplet
   fabric ([Machine.transfer]: same-chiplet pulls are one L3 hop,
   cross-chiplet pulls pay base latency plus serialization and contention
   on both endpoint links), then charges its op-class-weighted compute.

   Under [--check] two invariants are verified per job: no node observes
   a start time before any predecessor's finish, and the bytes charged
   cross-chiplet equal exactly the bytes the mapping cuts (each cut edge
   charged once — double or missed charging breaks the ledger). *)

open Chipsim
module Sched = Engine.Sched

type result = { span_ns : float; cross_bytes : int; nodes_run : int }

let start_eps = 1e-6

let run ?(job_id = 0) ctx (m : Mapper.t) (g : Graph.t) =
  let sched = Sched.Ctx.sched ctx in
  let machine = Sched.Ctx.machine ctx in
  let topo = Machine.topology machine in
  let check = Sched.check_enabled sched in
  let trace = Sched.trace sched in
  let n = Graph.num_nodes g in
  if Array.length m.Mapper.assign <> n then
    invalid_arg "Exec.run: mapping does not cover the graph";
  let finish = Array.make n Float.nan in
  let tasks = Array.make n None in
  let pending = Array.map Array.length g.Graph.preds in
  let cross = ref 0 in
  let worker_for ch =
    let rec go = function
      | [] -> None
      | core :: rest ->
          let w = Sched.worker_of_core sched core in
          if w >= 0 then Some w else go rest
    in
    go (Topology.cores_of_chiplet topo ch)
  in
  let rec body i ctx' =
    let nd = g.Graph.nodes.(i) in
    let dst = m.Mapper.assign.(i) in
    let start = Sched.Ctx.now ctx' in
    if check then
      Array.iter
        (fun ei ->
          let e = g.Graph.edges.(ei) in
          let f = finish.(e.Graph.src) in
          if not (start +. start_eps >= f) then
            Invariant.fail
              "taskgraph: node %d started at %g before predecessor %d \
               finished at %g"
              i start e.Graph.src f)
        g.Graph.preds.(i);
    Array.iter
      (fun ei ->
        let e = g.Graph.edges.(ei) in
        let src = m.Mapper.assign.(e.Graph.src) in
        if src <> dst then cross := !cross + e.Graph.bytes;
        let lat =
          Machine.transfer machine ~src_chiplet:src ~dst_chiplet:dst
            ~now_ns:(Sched.Ctx.now ctx') ~bytes:e.Graph.bytes
        in
        if lat > 0.0 then Sched.Ctx.work ctx' lat)
      g.Graph.preds.(i);
    let kind = Topology.kind_of_core topo (Sched.Ctx.core ctx') in
    Sched.Ctx.work ctx' (nd.Graph.cost_ns *. Graph.op_mult kind nd.Graph.op);
    (* end the quantum before reading the finish time: the scheduler
       rescales a whole quantum by core speed only at its end, so on a
       fast core the mid-quantum clock overstates when this node really
       finishes — and successors would appear to start in its past *)
    Sched.Ctx.yield ctx';
    let stop = Sched.Ctx.now ctx' in
    finish.(i) <- stop;
    Array.iter
      (fun ei ->
        let s = g.Graph.edges.(ei).Graph.dst in
        pending.(s) <- pending.(s) - 1;
        if pending.(s) = 0 then spawn_node ctx' s)
      g.Graph.succs.(i);
    match trace with
    | Some tr ->
        Engine.Trace.dag_node tr ~tenant:"dag" ~job_id ~node:i
          ~op:(Graph.op_name nd.Graph.op) ~chiplet:dst ~start_ns:start
          ~end_ns:stop
    | None -> ()
  and spawn_node ctx' i =
    let at =
      Array.fold_left
        (fun acc ei -> Float.max acc finish.(g.Graph.edges.(ei).Graph.src))
        (Sched.Ctx.now ctx')
        g.Graph.preds.(i)
    in
    tasks.(i) <-
      Some (Sched.Ctx.spawn ctx' ?worker:(worker_for m.Mapper.assign.(i)) ~at (body i))
  in
  let t0 = Sched.Ctx.now ctx in
  Array.iter (fun i -> if pending.(i) = 0 then spawn_node ctx i) g.Graph.order;
  (* awaiting in topological order is safe: all of node i's predecessors
     are awaited (hence fully finished) before i, and a node is spawned
     from inside its last predecessor's body — so tasks.(i) exists by the
     time the driver reaches it *)
  Array.iter
    (fun i ->
      match tasks.(i) with
      | Some t -> Sched.Ctx.await ctx t
      | None -> assert false)
    g.Graph.order;
  if check then begin
    let expected = Mapper.cross_bytes g ~assign:m.Mapper.assign in
    if !cross <> expected then
      Invariant.fail
        "taskgraph: %d cross-chiplet bytes charged but the mapping cuts %d"
        !cross expected
  end;
  let span = ref 0.0 in
  Array.iter (fun f -> if f > !span then span := f) finish;
  { span_ns = Float.max 0.0 (!span -. t0); cross_bytes = !cross; nodes_run = n }
