(** Typed columns with a simulated-memory shadow.

    Values live in OCaml arrays for query semantics; the paired region is
    what the machine model charges when a morsel scans the column. *)

open Chipsim

type t =
  | Ints of { data : int array; sim : Simmem.region }
  | Floats of { data : float array; sim : Simmem.region }

val ints :
  alloc:(elt_bytes:int -> count:int -> Simmem.region) -> int array -> t
val floats :
  alloc:(elt_bytes:int -> count:int -> Simmem.region) -> float array -> t

val place : alloc:(elt_bytes:int -> count:int -> Simmem.region) -> t -> t
(** The same values, shared, with a fresh region from [alloc]. *)

val length : t -> int
val sim : t -> Simmem.region

val scan_range : Engine.Sched.ctx -> t -> lo:int -> hi:int -> unit
(** Charge a sequential read of rows [lo, hi). *)

val touch : Engine.Sched.ctx -> t -> int -> unit
(** Charge a point read of one row. *)
