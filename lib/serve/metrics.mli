(** Counter / gauge / histogram metrics registry.

    The serving layer's single sink for observability: admission decisions,
    scheduler quanta, profiler fill counts and latency distributions all
    land here under dotted string names, and {!to_json} renders the whole
    registry deterministically (keys sorted, no wall-clock anywhere) so two
    runs with equal seeds produce byte-identical output. *)

type t

val create : unit -> t

(** {2 Counters} — monotonically increasing integers. *)

val incr : t -> ?by:int -> string -> unit
val counter_value : t -> string -> int
(** 0 if the counter was never incremented. *)

(** {2 Gauges} — last-write-wins floats. *)

val set_gauge : t -> string -> float -> unit
val gauge_value : t -> string -> float
(** 0. if the gauge was never set. *)

(** {2 Histograms} *)

val histogram : t -> string -> Histogram.t
(** Get-or-create (default {!Histogram.create} parameters). *)

val observe : t -> string -> float -> unit
(** [observe t name v] = [Histogram.observe (histogram t name) v]. *)

(** {2 Merging} *)

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst]: counters add, gauges take
    [src]'s value (last write wins, matching {!set_gauge}), histograms
    merge sample-by-bucket.  [src] is not modified.  Used to aggregate
    per-shard registries into one fleet-level registry.
    @raise Invalid_argument if a histogram name exists in both with
    incompatible bucket parameters. *)

(** {2 Export} *)

val to_json : t -> string
(** The registry as a JSON object
    [{"counters": {..}, "gauges": {..}, "histograms": {..}}] with keys in
    sorted order; histograms render count/mean/p50/p95/p99/max. *)

(** {2 JSON building blocks} — shared with report renderers so every
    number in the serving layer is formatted identically. *)

val json_of_float : float -> string

val json_obj : (string * string) list -> string
(** [{"k1":v1,...}] in the given order; keys are escaped, values are
    already-rendered JSON. *)

val json_of_histogram : Histogram.t -> string
