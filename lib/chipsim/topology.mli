(** Physical layout of a chiplet-based CPU.

    A machine is a set of sockets (= NUMA nodes); each socket holds several
    chiplets (CCDs); each chiplet holds several physical cores sharing one
    L3 slice.  Chiplets are further grouped into {e quadrants} that share an
    I/O-die stop, which produces the middle latency band of paper Fig. 3
    (inter-chiplet but intra-quadrant traffic is cheaper than crossing the
    whole die).

    The topology is a {e value}: per-chiplet compute kinds (big / little /
    accelerator, each with a throughput, memory-path and energy cost table)
    and per-chiplet I/O-die link overrides are part of the record, and the
    whole thing can be loaded from a small config file ({!of_file}) or
    rendered back out ({!to_string}), so machine families are data rather
    than code. *)

type core_kind = Big | Little | Accel
(** Compute kind of every core on a chiplet.  [Big] is the calibration
    baseline (all multipliers exactly 1.0). *)

type kind_spec = {
  speed : float;
      (** throughput multiplier vs a big core; scales quantum progress *)
  access_mult : float;  (** memory access latency multiplier *)
  energy_pj : float;  (** energy charged per memory access, picojoules *)
  general_tasks : bool;
      (** whether chiplets of this kind accept general (non-task-graph)
          work.  Big and little cores default to [true]; accelerator
          tiles default to [false], so placement skips them for morsel /
          OLAP gangs and only explicit task-graph mappings use them.
          Config files override with [general-tasks 0/1]. *)
}

type link = {
  lat_mult : float;  (** multiplier on this chiplet's I/O-die latencies *)
  bw_bytes_per_ns : float;  (** this chiplet's I/O-die link bandwidth *)
}

type t = private {
  sockets : int;  (** number of sockets = NUMA nodes *)
  chiplets_per_socket : int;
  cores_per_chiplet : int;
  chiplet_group_size : int;
      (** chiplets per I/O-die quadrant; must divide [chiplets_per_socket] *)
  l3_bytes_per_chiplet : int;
  l2_bytes_per_core : int;
  line_bytes : int;
  mem_channels_per_socket : int;
  mem_bw_bytes_per_ns_per_channel : float;
      (** calibrated as {e effective} bandwidth per outstanding miss: the
          simulator issues one access at a time per core (no MLP), so
          capacities are scaled down ~10x from the parts' raw numbers to
          keep saturation points realistic *)
  chiplet_kinds : core_kind array;  (** one entry per (global) chiplet *)
  kind_specs : kind_spec array;
      (** cost table indexed [Big] = 0, [Little] = 1, [Accel] = 2 *)
  links : link array;  (** one entry per (global) chiplet *)
  general_chiplets_per_socket : int;
      (** count of socket 0's chiplets whose kind accepts general work;
          derived by {!v} (sockets are uniform) *)
  chiplet_order : int array array;
      (** per socket, the local chiplet indices in the order Alg. 2
          visits them: general-task chiplets first, each band by
          descending kind speed, stable by index, so the identity on a
          homogeneous socket.  Derived by {!v}, once per topology;
          read-only. *)
}

val v :
  ?chiplet_group_size:int ->
  ?l3_bytes_per_chiplet:int ->
  ?l2_bytes_per_core:int ->
  ?line_bytes:int ->
  ?mem_channels_per_socket:int ->
  ?mem_bw_bytes_per_ns_per_channel:float ->
  ?chiplet_kinds:core_kind array ->
  ?kind_specs:kind_spec array ->
  ?links:link array ->
  sockets:int ->
  chiplets_per_socket:int ->
  cores_per_chiplet:int ->
  unit ->
  t
(** [v ~sockets ~chiplets_per_socket ~cores_per_chiplet ()] builds a
    topology, validating that every divisibility constraint holds, that
    kind/link arrays (when given) have one entry per chiplet, and that all
    multipliers are finite and positive.  Omitted kind/link arrays default
    to all-[Big] chiplets with identity links, which is bit-identical to
    the pre-heterogeneity model.
    @raise Invalid_argument on inconsistent parameters. *)

val num_cores : t -> int
val num_chiplets : t -> int
val cores_per_socket : t -> int

val chiplet_of_core : t -> int -> int
(** Global chiplet index of a global core index. *)

val socket_of_core : t -> int -> int
val socket_of_chiplet : t -> int -> int

val group_of_chiplet : t -> int -> int
(** Quadrant index (global) of a chiplet.  Computed per-socket, so a
    quadrant never spans a socket boundary regardless of how the topology
    was constructed. *)

val cores_of_chiplet : t -> int -> int list
(** Ascending list of the core ids located on a chiplet. *)

val same_socket : t -> int -> int -> bool

val validate_core : t -> int -> unit
(** @raise Invalid_argument if the core id is out of range. *)

(** {1 Heterogeneity} *)

val kind_of_chiplet : t -> int -> core_kind
val kind_of_core : t -> int -> core_kind
val spec_of_kind : t -> core_kind -> kind_spec

val core_speed : t -> int -> float
(** Static throughput multiplier of a core (its kind's [speed]). *)

val chiplet_accepts_general : t -> int -> bool
(** Whether a chiplet's kind accepts general (non-task-graph) work. *)

val heterogeneous : t -> bool
(** True iff not all chiplets share one kind. *)

val relative_capacity : t -> float
(** Mean per-core throughput relative to a big core, each core capped at
    1.0 — mirrors [Modifiers.online_capacity]'s convention so fleet
    routers can multiply the two.  Exactly 1.0 for homogeneous-big. *)

val default_link : link

val equal : t -> t -> bool

(** {1 Config files} *)

val of_string : string -> (t, string) result
(** Parse the topology config format: one directive per line or separated
    by [';'], [#] comments, sizes with optional KiB/MiB/GiB suffixes.
    Errors are one line naming the offending directive or field. *)

val of_file : string -> (t, string) result

val to_string : t -> string
(** Canonical multi-line rendering; [of_string (to_string t)] yields a
    topology [equal] to [t]. *)

val to_spec : t -> string
(** Same directives joined with ["; "] — a single-line form suitable for
    embedding in a CLI argument. *)

val format_float : float -> string
(** The shortest float literal that parses back to the same value ([%g]
    when six significant digits suffice) — every printer of a grammar
    that must round-trip uses it. *)

val pp : Format.formatter -> t -> unit
