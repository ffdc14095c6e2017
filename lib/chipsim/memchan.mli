(** Per-NUMA-node memory-channel contention model.

    DRAM accesses are binned by virtual time; when the bytes demanded within
    a bin exceed what the node's channels can deliver, the access latency is
    inflated proportionally.  This reproduces the paper's core premise
    (§2.2): more cores competing for a fixed number of channels degrade
    per-access latency once the node saturates.

    Bins are 1000 virtual ns wide, and the 8,192 most recent live in a
    fixed ring per node.  When virtual time spans more than 8,192 bins, a
    lagging access can alias with a newer bin that recycled its slot;
    such stale accesses are counted (see {!stale_accesses}) and charged
    at base load instead of clobbering the newer bin's demand history.  A node's deliverable capacity can be throttled at runtime
    (fault injection) via {!set_capacity_factor}. *)

type t

val create :
  nodes:int ->
  channels_per_node:int ->
  bytes_per_ns_per_channel:float ->
  line_bytes:int ->
  unit ->
  t

val charge : t -> node:int -> float array -> unit
(** [charge t ~node io] records one line transfer against [node].  On entry
    [io.(0)] is the virtual time and [io.(1)] the base latency; on return
    [io.(0)] holds the contention-adjusted latency (at least [io.(1)]).
    Floats cross the module boundary through the caller-owned cell so the
    per-access hot path never boxes. *)

val charge_lines :
  t -> node:int -> now_ns:float -> base_ns:float -> lines:int -> float
(** [charge_lines t ~node ~now_ns ~base_ns ~lines] records a bulk transfer
    of [lines] whole lines against [node]'s bin at [now_ns] — the
    task-graph edge path, where a tensor's bytes cross the channel at once
    — and returns the contention-adjusted latency: [base_ns] plus a
    serialization term ([lines * line_bytes] over the node's deliverable
    bytes/ns), scaled by the same contention factor as {!charge} at the
    post-charge bin load.  [lines = 0] returns [base_ns] without touching
    the channel.  Byte totals stay whole lines, so {!check_invariants} is
    preserved.
    @raise Invalid_argument on a negative line count. *)

val load_ratio : t -> node:int -> now_ns:float -> float
(** Demand / effective capacity of the bin containing [now_ns]
    (1.0 = saturated). *)

val bytes_served : t -> node:int -> int
(** Total bytes ever served by the node (for bandwidth-utilisation stats).
    Includes stale (aliased) accesses, so per-node byte totals stay correct
    across ring wraparound. *)

val set_capacity_factor : t -> node:int -> float -> unit
(** Throttle the node's deliverable bytes per bin to this fraction of
    nominal (clamped to [\[0.01, 1\]]).  Models memory-channel faults. *)

val stale_accesses : t -> int
(** Accesses that landed in a bin whose ring slot was already recycled by
    a newer bin (only possible once virtual time spans more than the
    ring's 8,192 bins). *)

val check_invariants : t -> unit
(** Verify the channel's structural invariants: ring byte conservation
    (live bin demand never exceeds the bytes ever served, slots are
    populated iff they hold a bin, bin ids map back to their slot),
    non-negative counters, byte totals that are whole lines, and capacity
    factors inside the clamped range.  O(nodes x slots) — meant for tests,
    end-of-run verification and the scenario fuzzer, not per access.
    @raise Invariant.Violation describing the first broken invariant. *)
