(** Simulated virtual address space with NUMA page placement.

    Workload data values live in ordinary OCaml arrays; this module only
    assigns {e simulated addresses} to logical allocations and tracks which
    NUMA node each simulated page resides on.  Placement follows the policy
    attached to the region, mirroring Linux [set_mempolicy]:
    first-touch binds a page to the node of the first core touching it,
    [Bind] forces a node, [Interleave] round-robins pages across nodes.
    A page never moves once placed. *)

type policy =
  | First_touch
  | Bind of int  (** NUMA node *)
  | Interleave

type t

type region = {
  base : int;  (** simulated byte address of the first element *)
  length_bytes : int;
  elt_bytes : int;
  region_policy : policy;
}

val create : Topology.t -> t

val alloc : t -> ?policy:policy -> elt_bytes:int -> count:int -> unit -> region
(** Allocate a region of [count] elements of [elt_bytes] bytes each,
    page-aligned so distinct regions never share a page. *)

val addr : region -> int -> int
(** Simulated address of element [i].  Bounds are the caller's problem in
    release mode; checked with [assert]. *)

val node_of_addr : t -> toucher_node:int -> int -> int
(** NUMA node holding the page of a simulated address, placing the page
    per the owning region's policy if this is the first touch. *)
