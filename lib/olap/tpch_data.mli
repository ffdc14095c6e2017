(** TPC-H-shaped synthetic data generator.

    Schemas and cardinality ratios follow the TPC-H specification
    (per unit scale factor: 10 k suppliers, 150 k customers, 200 k parts,
    800 k partsupp, 1.5 M orders, ~6 M lineitems); strings are encoded as
    small integer dictionary codes and dates as day numbers in
    [\[0, 2556)] (1992-01-01 .. 1998-12-31), which preserves every
    predicate structure the queries need. *)

open Chipsim

type t = {
  sf : float;
  region : Table.t;
  nation : Table.t;
  supplier : Table.t;
  customer : Table.t;
  part : Table.t;
  partsupp : Table.t;
  orders : Table.t;
  lineitem : Table.t;
}

val generate :
  alloc:(elt_bytes:int -> count:int -> Simmem.region) ->
  ?seed:int -> sf:float -> unit -> t
(** @raise Invalid_argument if [sf <= 0]. *)

val place : alloc:(elt_bytes:int -> count:int -> Simmem.region) -> t -> t
(** The same dataset with fresh regions from [alloc], allocated in the
    order {!generate} allocates them (table by table in field order, each
    table last column first); every column's values are shared, not
    copied. *)

val total_rows : t -> int

(** Dictionary sizes for encoded string columns. *)

val num_segments : int
(** dictionary size of [c_mktsegment] *)

val num_priorities : int
(** dictionary size of [o_orderpriority] *)

val num_types : int
val days_total : int
val day_of : year:int -> int
(** First day number of a year in [1992, 1999]. *)
