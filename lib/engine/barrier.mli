(** Task-level barrier across chiplets (paper §4.1: "barrier synchronization
    mechanisms coordinate task execution across multiple chiplets").

    The release cost models a tree barrier: every participant pays
    [2 * max-core-distance * ceil(log2 n)] from the latest arrival, so
    barriers among cores spread across chiplets/sockets cost more than
    barriers within a chiplet — the effect the Fig. 5 microbenchmark
    measures. *)

type t

val create : int -> t
(** Barrier for [n] participants.  @raise Invalid_argument if [n <= 0]. *)

val wait : Sched.ctx -> t -> unit
(** Block the calling task until [n] tasks have arrived; the barrier then
    resets for reuse (cyclic). *)
