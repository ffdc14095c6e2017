(** Execution tracing: a bounded ring buffer of scheduler, policy and
    serving events, serialized as Chrome trace-event JSON (load in
    [chrome://tracing] / Perfetto).

    This is the observability side of the paper's profiler: where the PMU
    counters say {e what} was served from where, the trace shows {e when}
    each worker ran which task on which core, when the policy spread or
    contracted the gang, and (in serving mode) the admit/shed/start/finish
    lifecycle of every job plus a periodic fill-class counter track — the
    Fig. 3 time series the policy consumes.

    Producers emit only while a trace is attached, so a run without one
    pays a [None] branch and no allocation on the hot paths.  The store
    is a fixed-capacity ring: when full, the {e oldest} events are
    overwritten ({!dropped} counts the overwritten ones), bounding memory
    for long serving runs. *)

type t

type job_phase = Admit | Shed | Start | Finish

type fleet_phase = Route | Relocate | Router_shed

type event =
  | Quantum of { worker : int; core : int; task_id : int; start_ns : float; end_ns : float }
  | Steal of { thief : int; victim : int; task_id : int; at_ns : float }
  | Park of { worker : int; at_ns : float }
  | Migration of { worker : int; from_core : int; to_core : int; at_ns : float }
  | Spread_change of { worker : int; old_spread : int; new_spread : int; at_ns : float }
  | Mode_switch of { from_mode : string; to_mode : string; at_ns : float }
  | Job of { phase : job_phase; tenant : string; kind : string; job_id : int; at_ns : float }
  | Counter of { name : string; at_ns : float; series : (string * float) list }
  | Instant of { name : string; at_ns : float }
  | Fault of { desc : string; at_ns : float }
  | Fleet of {
      phase : fleet_phase;
      job_id : int;
      tenant : string;
      shard : int;  (** destination shard ([-1] for a router shed) *)
      from_shard : int;  (** source shard for relocations, [-1] otherwise *)
      at_ns : float;
    }
  | Dag_node of {
      tenant : string;
      job_id : int;
      node : int;
      op : string;
      chiplet : int;
      start_ns : float;
      end_ns : float;
    }  (** one task-graph node's execution on its mapped chiplet *)

val create : ?capacity:int -> ?pid:int -> ?name:string -> unit -> t
(** Ring buffer of [capacity] events (default 2^18).  [pid] (default 0)
    is the Chrome-trace process id every event is rendered under — fleet
    mode gives each shard its own pid so shards appear as separate
    process rows.  [name] labels the process row when traces are merged.
    @raise Invalid_argument if [capacity <= 0]. *)

val pid : t -> int

(** Event recording. *)

val task_quantum :
  t -> worker:int -> core:int -> task_id:int -> start_ns:float -> end_ns:float -> unit

val steal : t -> thief:int -> victim:int -> task_id:int -> at_ns:float -> unit
val park : t -> worker:int -> at_ns:float -> unit
val migration : t -> worker:int -> from_core:int -> to_core:int -> at_ns:float -> unit

val spread_change :
  t -> worker:int -> old_spread:int -> new_spread:int -> at_ns:float -> unit

val mode_switch : t -> from_mode:string -> to_mode:string -> at_ns:float -> unit

val job :
  t -> phase:job_phase -> tenant:string -> kind:string -> job_id:int ->
  at_ns:float -> unit

val counter : t -> name:string -> at_ns:float -> series:(string * float) list -> unit
(** One sample on a Chrome counter track (["ph":"C"]); [series] maps
    sub-track names to values at [at_ns]. *)

val instant : t -> name:string -> at_ns:float -> unit

val fault : t -> desc:string -> at_ns:float -> unit
(** Record a fault-injection or recovery instant (rendered on the global
    ["fault"] category track). *)

(** Fleet (cluster-router) events, rendered on the ["fleet"] category
    track.  Emitted into the {e router's} trace, not a shard's. *)

val fleet_route : t -> job_id:int -> tenant:string -> shard:int -> at_ns:float -> unit
val fleet_relocate : t -> job_id:int -> from_shard:int -> to_shard:int -> at_ns:float -> unit
val fleet_shed : t -> job_id:int -> tenant:string -> at_ns:float -> unit

val dag_node :
  t -> tenant:string -> job_id:int -> node:int -> op:string -> chiplet:int ->
  start_ns:float -> end_ns:float -> unit
(** Record one task-graph node's execution window on its mapped chiplet
    (rendered as a duration row per chiplet on the ["dag"] category
    track). *)

val num_events : t -> int
(** Events currently retained (at most [capacity]). *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val clear : t -> unit

val events : t -> event list
(** Retained events, oldest first (for tests and offline analysis). *)

val to_chrome_json : t -> string
(** The retained window as a Chrome trace-event JSON array.  Timestamps
    and durations are microseconds of virtual time, one row
    ("pid 0, tid = worker") per worker; all interpolated names are
    JSON-escaped. *)

val save : t -> string -> unit
(** Write {!to_chrome_json} to a file. *)

val to_chrome_json_merged : t list -> string
(** Merge several traces (one per shard plus the router) into one Chrome
    JSON array.  Each trace renders under its own {!pid}; traces created
    with [~name] get a ["process_name"] metadata row so Perfetto labels
    the process. *)

val save_merged : t list -> string -> unit
(** Write {!to_chrome_json_merged} to a file. *)

val summary : t -> string
(** Human-readable digest: event counts by category, migration churn,
    job-phase counts and the spread-change timeline. *)
