(** Typed single-assignment futures over {!Sched} tasks.

    The paper's [call()] API has synchronous and asynchronous flavours;
    futures give the asynchronous one a result channel: a producer task
    fulfills once, any number of consumer tasks await the value
    (suspending until it arrives). *)

type 'a t

val create : unit -> 'a t

val fulfill : Sched.ctx -> 'a t -> 'a -> unit
(** Publish the value and wake all waiters.
    @raise Invalid_argument if already fulfilled. *)

val await : Sched.ctx -> 'a t -> 'a
(** The value, suspending the calling task until {!fulfill} runs. *)

val spawn_at : Sched.ctx -> ?worker:int -> ?at:float -> (Sched.ctx -> 'a) -> 'a t
(** Run a function as a task spawned from inside a task; its return value
    fulfills the future.  The child defaults to the caller's worker and,
    unlike a {!Par.all_do} call, is immediately runnable.  [?at] is the
    earliest virtual time the producer may start — serving dispatchers use it to
    keep a job's start causally after its arrival even when a worker with
    a lagging clock steals it. *)
