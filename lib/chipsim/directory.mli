(** Sparse coherence directory: which chiplets hold a copy of each line.

    Presence is a bitmask (machine-wide chiplet index), so topologies of up
    to 62 chiplets are supported.  Masks are kept in 64-line pages: a
    machine's directory holds pages for the regions it placed
    ({!reserve}) and for the lines outside them that ever had a holder,
    not for the whole address range below its highest line. *)

type t

val create : chiplets:int -> t
(** An empty directory; it holds no page yet. *)

val reserve : t -> first:int -> last:int -> unit
(** Place the pages of lines [first .. last] now, so that recording a
    holder there later allocates nothing ({!Machine.alloc} calls this for
    every region it places).  Lines past the paged range are skipped.
    @raise Invalid_argument if [first < 0] or [last < first]. *)

val holders : t -> int -> int
(** Bitmask of chiplets holding the line (0 if uncached). *)

val add : t -> line:int -> chiplet:int -> unit
val remove : t -> line:int -> chiplet:int -> unit
val holds : t -> line:int -> chiplet:int -> bool
val nearest_holder :
  Topology.t -> t -> line:int -> from_chiplet:int -> int option
(** Closest chiplet (by {!Latency.classify_chiplets} order, same chiplet
    excluded) holding the line, or [None] when uncached anywhere else. *)

val nearest_holder_id :
  Topology.t -> t -> line:int -> from_chiplet:int -> int
(** Like {!nearest_holder} but int-coded ([-1] = none) so the per-access
    hot path allocates nothing. *)

val fill :
  t -> line:int -> chiplet:int -> evicted:int -> ranks:int array -> row:int ->
  int
(** An L3 miss on [chiplet]: drop [evicted] (the line the fill displaced,
    or negative for none) from [chiplet], then return the nearest other
    chiplet holding [line] ([-1] = none) and add [chiplet] as a holder.
    Distances come from row [row] of the caller's flattened chiplets x
    chiplets rank matrix ([ranks.(row + c)] is the rank from [chiplet] to
    [c]).  The chiplet is not range-checked: this is {!Machine}'s
    per-access path. *)

val claim : t -> line:int -> chiplet:int -> int
(** A write by [chiplet]: make it the only holder of [line] and return the
    bitmask of the other chiplets that held it.  Not range-checked, like
    {!fill}. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f line mask] for every line with a non-empty holder
    mask (O(tracked lines); for invariant checks). *)

val clear : t -> unit
