(** Compressed-sparse-row graph with a simulated-memory shadow.

    The adjacency structure lives in ordinary OCaml arrays (for the actual
    algorithm) and in simulated regions (for charging cache/DRAM costs):
    touching edge data through {!read_adj} advances the
    executing worker's clock through the machine model. *)

open Chipsim

type t = {
  n : int;
  m : int;
  row_ptr : int array;  (** length n+1 *)
  col : int array;  (** length m *)
  weight : int array;  (** length m; 1 for unweighted graphs *)
  sim_row : Simmem.region;  (** 8 B per entry *)
  sim_col : Simmem.region;
  sim_weight : Simmem.region;
}

val of_kronecker :
  alloc:(elt_bytes:int -> count:int -> Simmem.region) ->
  ?weighted:bool -> ?seed:int -> Kronecker.t -> t
(** Symmetrise (both directions) and build; weights uniform in [1,255]
    when [weighted].  Each vertex lists its forward edges in generation
    order, then its reverse ones.
    @raise Invalid_argument if an edge names a vertex outside the graph. *)

val place : alloc:(elt_bytes:int -> count:int -> Simmem.region) -> t -> t
(** The same graph with fresh simulated regions from [alloc], allocated
    in the order {!of_kronecker} allocates them; the host arrays are
    shared, not copied.  One graph built once serves many machines this
    way. *)

val degree : t -> int -> int

val default_source : t -> int
(** The BFS/SSSP source vertex when none is chosen: the first vertex
    with an edge (the last vertex if none has one). *)

val out_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [out_neighbors t u f] calls [f v w] for every out-edge (u,v,w).  The
    untimed reference kernels use it; the simulated kernels loop over
    [row_ptr]/[col] themselves, so no closure is built per vertex. *)

val read_adj : Engine.Sched.ctx -> t -> int -> unit
(** Touch the row pointer and the whole adjacency range of a vertex
    (sequential edge scan), charging the executing worker. *)
