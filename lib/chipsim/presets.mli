(** Ready-made topologies for the two evaluation platforms of the paper.

    [scale] divides cache capacities (and leaves layout alone) so that
    experiments whose point is a {e capacity crossover} can run with
    proportionally smaller datasets in the same shape; the default of 1
    models the real parts. *)

val scale_topology : Topology.t -> scale:int -> Topology.t
(** Divide both cache capacities by [scale], clamping each to a per-cache
    minimum line count (16 lines for L2, 64 for L3) so the L2:L3 hierarchy
    survives aggressive scaling; layout, kinds and links are untouched.
    @raise Invalid_argument if [scale <= 0] or the scaled L2 would reach
    or exceed the scaled L3 (an inverted hierarchy). *)

val amd_milan : ?scale:int -> unit -> Topology.t
(** Dual-socket AMD EPYC Milan 7713: 2 sockets x 8 chiplets x 8 cores,
    32 MB L3 per chiplet, 8 memory channels per socket. *)

val amd_milan_1s : ?scale:int -> unit -> Topology.t
(** Single-socket Milan (the §2.3 microbenchmark platform). *)

val intel_spr : ?scale:int -> unit -> Topology.t
(** Dual-socket Intel Xeon Platinum 8488C modelled as 4 tiles x 12 cores per
    socket with a shared-ish L3 split in tile slices and a faster on-die
    interconnect than AMD's. *)

val intel_profile : Latency.profile
(** Latency profile for the Intel preset: flatter hierarchy (faster mesh
    between tiles, slightly slower intra-tile L3) per paper §5.3. *)
