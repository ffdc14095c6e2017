(** Graph500-style Kronecker (R-MAT) edge-list generator.

    The paper's graph inputs are Kronecker graphs with 2^24 vertices and
    16 x 2^24 edges; the same generator here is run at configurable scale.
    Self-loops are dropped; duplicate edges are kept (as Graph500 does
    before its optional dedup). *)

type t = {
  scale : int;  (** vertices = 2^scale *)
  edge_factor : int;
  src : int array;
  dst : int array;
}

val generate : ?seed:int -> ?edge_factor:int -> scale:int -> unit -> t
(** @raise Invalid_argument if [scale < 1] or [edge_factor < 1]. *)

val num_vertices : t -> int
