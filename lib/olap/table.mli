(** A named collection of equal-length columns. *)

type t

val v : name:string -> rows:int -> (string * Column.t) list -> t
(** @raise Invalid_argument if any column's length differs from [rows]. *)

val place : alloc:(elt_bytes:int -> count:int -> Chipsim.Simmem.region) -> t -> t
(** The same columns, values shared, each with a fresh region from
    [alloc]; regions are allocated last column first. *)

val rows : t -> int
val col : t -> string -> Column.t
(** @raise Not_found for unknown column names. *)

val ints : t -> string -> int array
(** Raw data of an int column (for tight query loops). *)

val floats : t -> string -> float array
