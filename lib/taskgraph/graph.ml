(* A job as a static task DAG: per-node compute cost (weighted per chiplet
   kind, so accelerator tiles are genuinely faster on the dense
   conv/matmul-class nodes and slower on everything else) and per-edge
   communication volumes. *)

open Chipsim

type op = Conv | Matmul | Elementwise | Reduce | Embed

let op_name = function
  | Conv -> "conv"
  | Matmul -> "matmul"
  | Elementwise -> "elementwise"
  | Reduce -> "reduce"
  | Embed -> "embed"

let accel_friendly = function
  | Conv | Matmul -> true
  | Elementwise | Reduce | Embed -> false

(* Accelerator tiles run the dense kernels at their full kind speed but
   push everything else (elementwise glue, reductions, embedding lookups)
   through a thin scalar frontend.  The penalty exceeds the default accel
   speed (2.5), so an off-profile node is net *slower* on an accel
   chiplet than on a big core — which is what makes mapping a genuine
   decision rather than "always use the fastest kind". *)
let off_profile_penalty = 3.0

let op_mult (kind : Topology.core_kind) op =
  match kind with
  | Big | Little -> 1.0
  | Accel -> if accel_friendly op then 1.0 else off_profile_penalty

type node = { op : op; cost_ns : float }
type edge = { src : int; dst : int; bytes : int }

type t = {
  name : string;
  nodes : node array;
  edges : edge array;
  preds : int array array;  (* incoming edge indices, per node *)
  succs : int array array;  (* outgoing edge indices, per node *)
  order : int array;  (* a deterministic topological order of node ids *)
}

let name t = t.name
let num_nodes t = Array.length t.nodes
let num_edges t = Array.length t.edges

let total_cost_ns t =
  Array.fold_left (fun acc n -> acc +. n.cost_ns) 0.0 t.nodes

(* effective compute cost of a node on a chiplet of [kind], in ns of a
   big core's time: op-class weighting over the kind's raw speed *)
let scaled_cost_ns topo kind n =
  n.cost_ns *. op_mult kind n.op /. (Topology.spec_of_kind topo kind).Topology.speed


(* Validate and build: positive finite costs, in-range edge endpoints, no
   self or duplicate edges, and no cycles (Kahn's algorithm, smallest
   ready id first, so [order] is deterministic).  Raises Invalid_argument
   with a one-line description otherwise. *)
let v ~name ~nodes ~edges =
  let n = Array.length nodes in
  if n = 0 then invalid_arg "Graph.v: a graph needs at least one node";
  Array.iteri
    (fun i nd ->
      if (not (Float.is_finite nd.cost_ns)) || nd.cost_ns <= 0.0 then
        invalid_arg
          (Printf.sprintf "Graph.v: node %d cost %g must be positive" i
             nd.cost_ns))
    nodes;
  let seen = Hashtbl.create (Array.length edges) in
  Array.iter
    (fun e ->
      if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
        invalid_arg
          (Printf.sprintf "Graph.v: edge %d -> %d references a node outside [0,%d)"
             e.src e.dst n);
      if e.src = e.dst then
        invalid_arg (Printf.sprintf "Graph.v: self-edge on node %d" e.src);
      if e.bytes < 0 then
        invalid_arg
          (Printf.sprintf "Graph.v: edge %d -> %d has negative bytes" e.src e.dst);
      if Hashtbl.mem seen (e.src, e.dst) then
        invalid_arg (Printf.sprintf "Graph.v: duplicate edge %d -> %d" e.src e.dst);
      Hashtbl.add seen (e.src, e.dst) ())
    edges;
  let preds = Array.make n [] and succs = Array.make n [] in
  Array.iteri
    (fun i e ->
      preds.(e.dst) <- i :: preds.(e.dst);
      succs.(e.src) <- i :: succs.(e.src))
    edges;
  let preds = Array.map (fun l -> Array.of_list (List.rev l)) preds in
  let succs = Array.map (fun l -> Array.of_list (List.rev l)) succs in
  (* Kahn's algorithm, always picking the smallest ready node id: rejects
     cycles and yields one deterministic topological order *)
  let indeg = Array.map Array.length preds in
  let order = Array.make n (-1) in
  let placed = ref 0 in
  (try
     while !placed < n do
       let pick = ref (-1) in
       for i = n - 1 downto 0 do
         if indeg.(i) = 0 then pick := i
       done;
       if !pick < 0 then raise Exit;
       order.(!placed) <- !pick;
       incr placed;
       indeg.(!pick) <- -1;
       Array.iter (fun ei -> indeg.(edges.(ei).dst) <- indeg.(edges.(ei).dst) - 1)
         succs.(!pick)
     done
   with Exit ->
     let culprit = ref 0 in
     for i = n - 1 downto 0 do
       if indeg.(i) > 0 then culprit := i
     done;
     invalid_arg (Printf.sprintf "Graph.v: cycle through node %d" !culprit));
  { name; nodes = Array.copy nodes; edges = Array.copy edges; preds; succs; order }

(* -- deterministic generator --------------------------------------------- *)

type shape = Chain | Inception | Fanout

let shape_name = function
  | Chain -> "chain"
  | Inception -> "inception"
  | Fanout -> "fanout"

let shape_of_name = function
  | "chain" -> Some Chain
  | "inception" -> Some Inception
  | "fanout" -> Some Fanout
  | _ -> None

let all_shapes = [ Chain; Inception; Fanout ]

let kib = 1024

(* cost and volume draws: dense nodes are an order of magnitude heavier
   than glue nodes, and inter-layer activations vary enough that edge
   weight genuinely orders the mapper's contraction choices *)
let dense_cost rng = 8_000.0 +. Rng.float rng 8_000.0
let glue_cost rng = 1_200.0 +. Rng.float rng 1_800.0
let heavy_bytes rng = (32 * kib) + Rng.int rng (96 * kib)
let light_bytes rng = (2 * kib) + Rng.int rng (6 * kib)

let generate ~shape ~layers ~seed () =
  if layers < 1 then invalid_arg "Graph.generate: layers must be >= 1";
  let rng = Rng.create (0x7a5c0de + (seed * 31) + layers) in
  let nodes = ref [] and edges = ref [] and count = ref 0 in
  let add_node op cost =
    nodes := { op; cost_ns = cost } :: !nodes;
    incr count;
    !count - 1
  in
  let add_edge src dst bytes = edges := { src; dst; bytes } :: !edges in
  let name = Printf.sprintf "%s-%d-%d" (shape_name shape) layers seed in
  (match shape with
  | Chain ->
      (* a DNN backbone: embed -> (conv|matmul / elementwise)* -> reduce *)
      let prev = ref (add_node Embed (glue_cost rng)) in
      for l = 1 to layers do
        let op =
          if l mod 2 = 1 then if Rng.bool rng then Conv else Matmul
          else Elementwise
        in
        let cost = if accel_friendly op then dense_cost rng else glue_cost rng in
        let n = add_node op cost in
        add_edge !prev n (heavy_bytes rng);
        prev := n
      done;
      let head = add_node Reduce (glue_cost rng) in
      add_edge !prev head (light_bytes rng)
  | Inception ->
      (* branchy inception blocks: each layer splits into 2-4 parallel
         dense branches that re-join in a reduce node *)
      let prev = ref (add_node Embed (glue_cost rng)) in
      for _l = 1 to layers do
        let branches = 2 + Rng.int rng 3 in
        let join = ref [] in
        for _b = 1 to branches do
          let op = if Rng.bool rng then Conv else Matmul in
          let n = add_node op (dense_cost rng) in
          add_edge !prev n (heavy_bytes rng);
          join := n :: !join
        done;
        let j = add_node Reduce (glue_cost rng) in
        List.iter (fun b -> add_edge b j (heavy_bytes rng)) (List.rev !join);
        prev := j
      done
  | Fanout ->
      (* microservice fan-out: a front-end embeds the request, [layers]
         independent services work on it, an aggregator reduces replies *)
      let root = add_node Embed (glue_cost rng) in
      let agg_deps = ref [] in
      for _s = 1 to layers do
        let op = if Rng.int rng 3 = 0 then Matmul else Elementwise in
        let cost = if accel_friendly op then dense_cost rng else glue_cost rng in
        let n = add_node op cost in
        add_edge root n (light_bytes rng);
        agg_deps := n :: !agg_deps
      done;
      let agg = add_node Reduce (glue_cost rng) in
      List.iter (fun s -> add_edge s agg (heavy_bytes rng)) (List.rev !agg_deps));
  v ~name
    ~nodes:(Array.of_list (List.rev !nodes))
    ~edges:(Array.of_list (List.rev !edges))
