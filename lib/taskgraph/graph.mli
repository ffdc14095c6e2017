(** Jobs as static task DAGs.

    Each node carries a compute cost and an op class; dense
    ([conv]/[matmul]) nodes run at full speed on accelerator chiplets
    while everything else pays an off-profile penalty there, so per-kind
    effective cost is a real mapping signal.  Each edge carries a
    communication volume in bytes, charged through the machine's
    chiplet-link channels when its endpoints are mapped to different
    chiplets.

    Graphs come from the seeded {!generate}; construction rejects empty
    graphs, non-positive costs, out-of-range, self or duplicate edges and
    cycles. *)

open Chipsim

type op = Conv | Matmul | Elementwise | Reduce | Embed

val op_name : op -> string

val op_mult : Topology.core_kind -> op -> float
(** Compute-cost multiplier of running an op class on a core kind: 1.0
    everywhere except ops other than [Conv] and [Matmul] on [Accel]
    chiplets, which pay a 3x off-profile penalty — more than the accel
    kind's default speed advantage, so glue nodes are net slower there
    than on a big core. *)

type node = { op : op; cost_ns : float }
type edge = { src : int; dst : int; bytes : int }

type t = private {
  name : string;
  nodes : node array;
  edges : edge array;
  preds : int array array;  (** incoming edge indices, per node *)
  succs : int array array;  (** outgoing edge indices, per node *)
  order : int array;  (** a deterministic topological order of node ids *)
}

val name : t -> string
val num_nodes : t -> int
val num_edges : t -> int
val total_cost_ns : t -> float

val scaled_cost_ns : Topology.t -> Topology.core_kind -> node -> float
(** Effective cost of a node on a chiplet of this kind, in big-core ns:
    [cost * op_mult kind op / kind speed]. *)

val equal : t -> t -> bool

(** {1 Deterministic generator} *)

type shape = Chain | Inception | Fanout

val shape_name : shape -> string
val shape_of_name : string -> shape option
val all_shapes : shape list

val generate : shape:shape -> layers:int -> seed:int -> unit -> t
(** Seeded DNN-pipeline generator: [Chain] is a linear backbone of dense
    and glue layers, [Inception] splits each layer into 2-4 parallel
    dense branches re-joined by a reduce, [Fanout] is a microservice star
    (front-end, [layers] parallel services, aggregator).  Equal
    arguments give equal graphs.
    @raise Invalid_argument if [layers < 1]. *)
