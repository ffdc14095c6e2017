(** RandomAccess (GUPS): random read-modify-write updates over a large
    table, the paper's non-contiguous memory-access probe.  Throughput is
    reported in giga-updates per second of virtual time. *)

type params = {
  table_words : int;  (** 8-byte words in the shared table *)
  updates : int;  (** total RMW operations *)
  seed : int;
}

val default_params : params

val run : Exec_env.t -> params -> Workload_result.t
(** [work_items] = updates performed: each worker runs {!updates} on its
    share, from its own stream seeded [seed + worker]. *)

val updates :
  Engine.Sched.ctx -> Chipsim.Simmem.region -> table_words:int -> Chipsim.Rng.t -> int -> unit
(** [updates ctx table ~table_words rng n] is one task's body: [n]
    read-modify-writes of [table] words drawn from [rng] below
    [table_words], each with 2 ns of compute, and a
    {!Engine.Sched.Ctx.maybe_yield} every 256 updates.  The serving
    layer's GUPS jobs run it too. *)

val gups : Workload_result.t -> float
(** Giga-updates per (virtual) second. *)
