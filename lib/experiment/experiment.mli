(** One experiment, described once.

    An experiment is what one evaluation result of the paper is: a
    runtime system on a machine with a worker count, running a batch
    kernel, a serving mix or a fleet of serving machines — plus the
    seed, fault schedules, energy knobs and checking that shape the run.
    [charm_run] and [charm_serve] parse their flags into a {!t} through
    the one flag table here ({!cli}), the scenario fuzzer generates
    {!t}s directly, and all of them execute through {!run}.  The text
    form ({!to_string}) is the command line that replays the experiment,
    so a printed repro runs the very experiment that produced it.  A
    planted bug is one more fault event ([TIME_US:plant:BUG]), so a
    planted repro carries it inside [--faults] or [--faults-shard].

    Every flag has one home, and the spec holds only what its branch
    reads.  [-w] and [--fleet] pick the branch; the machine, seed, graph
    scale, fault and check flags (and the energy flags, on one
    machine) are common; [-q] belongs to [-w tpch]; the serving flags to
    [-w serve], which a fleet shares; the fleet flags to [--fleet N],
    N > 0.  A flag given outside its home is rejected in one line. *)

type kernel =
  | Bfs
  | Pagerank
  | Cc
  | Sssp
  | Gups
  | Graph500
  | Streamcluster
  | Sgd
  | Tpch of int option  (** one query ([-q]), or all of them *)
  | Ycsb
  | Tpcc
  | Dag
      (** one inference DAG per shape, run under both mappers *)

val kernel_name : kernel -> string
(** Its [-w] name: ["bfs"], ["pr"], ["graph500"], ... *)

type tenant = {
  name : string;
  weight : float;  (** fair-queue share *)
  mix : Serving.Job.kind list;  (** drawn uniformly; repeat a kind to weight it *)
  replicas : int;  (** voted redundant execution degree (1 = none) *)
}

(** Each tenant's arrival process: Poisson at a rate in jobs/s
    ([--rate]), or [clients] closed-loop clients that each think
    [think_us] between jobs ([--closed-loop], [--think-us]). *)
type arrival = Open_loop of float | Closed_loop of { clients : int; think_us : float }

type serve = {
  arrival : arrival;  (** per tenant; a fleet's is open *)
  jobs : int;  (** jobs per tenant (cluster-wide in a fleet) *)
  max_inflight : int;
  queue_bound : int;  (** per-tenant admission bound *)
  slo_factor : float;
  tenants : tenant list;
  dag_mapper : Taskgraph.Mapper.policy;
}

type fleet = {
  shards : int;
  router : Fleet.Router.policy;
  epoch_us : float;
  shard_machines : Harness.Systems.machine_kind list;
      (** cycled over the shards; [] = every shard is [t.machine] *)
  diurnal : float;
  diurnal_period_us : float;
  relocation : bool;
}

type workload = Batch of kernel | Serve of serve | Fleet of serve * fleet

type t = {
  sys : Harness.Systems.sys;
  machine : Harness.Systems.machine_kind;
  workers : int;  (** per machine *)
  cache_scale : int;
  seed : int option;
      (** input/arrival seed; [None] (batch only) keeps every generator's
          built-in default *)
  graph_scale : int;
  faults : (int * Faults.Schedule.t) list;
      (** (shard, schedule) pairs; a single machine is shard 0 *)
  energy : bool;  (** per-quantum compute-energy accounting *)
  energy_weight : float;  (** CHARM's EDP-aware placement weight (0 = off) *)
  power_cap_mw : float;  (** machine power cap in simulated mW (0 = off) *)
  check : bool;  (** executable invariants on *)
  workload : workload;
}

val default_serve : serve
(** The flag defaults: 5000 jobs/s and 40 jobs per tenant, 4 in service,
    queue bound 64, SLO 3x, open loop, comm-aware DAG mapping and three
    tenants: graph (weight 2, BFS twice as often as PageRank), olap (TPC-H
    Q1, Q3, Q6) and oltp (YCSB batches twice as often as GUPS). *)

val default_fleet : fleet
(** The flag defaults, [shards] aside: charm-aware routing, 250 us epochs,
    every shard on the main machine, flat arrivals, relocation on. *)

(** {1 Text form} *)

val to_string : t -> string
(** The command line that replays [t]: [charm_run ...] for a batch
    kernel, [charm_serve ...] otherwise.  It spells out the fields of
    [t]'s branch and no other: every one that differs from that binary's
    default, every number in its shortest exact form and arguments
    quoted for a POSIX shell.  A custom machine is inlined as a topology
    spec that carries its name. *)

val of_string : string -> (t, string) result
(** Parse a command line as {!cli}'s binaries do (the first word picks the
    binary's defaults).  [of_string (to_string t) = Ok t] for every [t]
    the flags can express (a fleet's tenants arrive open-loop, on no
    energy knob) whose custom machines have names without [';'].  Errors
    are one line. *)

(** {1 Running} *)

type functional =
  | Levels of int array  (** BFS levels *)
  | Ranks of float array  (** PageRank ranks *)
  | Labels of int array  (** connected-component labels *)
  | Distances of int array  (** SSSP distances *)
  | Checksum of float  (** a single TPC-H query's checksum *)
  | Placements of string  (** a fleet's placement log *)
  | Nothing

type outcome = {
  report : string;
      (** what the CLI prints: a batch run's text (header, kernel lines,
          machine statistics) or a serving/fleet JSON report, newline
          terminated *)
  result : functional;  (** what the oracles compare across runs *)
  value : float;
      (** a batch kernel's headline number, unrounded: work items per
          virtual second for the graph kernels, GUPS and Graph500,
          gradient GB/s for SGD, commits/s for YCSB and TPC-C, and for
          streamcluster its simulated makespan in ns; 0 for TPC-H, DAG,
          serving and fleet runs *)
  stats : Engine.Stats.report option;
      (** the machine's statistics after the run; [None] for a fleet *)
  traces : Engine.Trace.t list;  (** [] unless traced; a fleet's router first *)
  sim_events : int;  (** {!Engine.Stats.sim_events}, summed over machines *)
}

val kernel_graph : Workloads.Exec_env.t -> t -> weighted:bool -> Workloads.Csr.t
(** The Kronecker graph a graph kernel of [t] runs on, allocated in the
    given environment's simulated memory.  The last edge list generated
    is kept, keyed by [t]'s seed and graph scale, so runs on one graph
    generate it once. *)

val audit : Workloads.Csr.t -> functional -> unit
(** [audit g result] compares a graph kernel's result on [g] with its
    sequential reference: BFS levels and SSSP distances (from
    {!Workloads.Csr.default_source}) and component labels (each component's smallest
    vertex) exactly, and PageRank ranks within 1e-9 absolute.  Other results pass.  {!run}
    calls it on every graph kernel's result under [check].
    @raise Chipsim.Invariant.Violation on the first mismatch. *)

val run : ?trace:Engine.Trace.t -> t -> outcome
(** Build the instance (or cluster), arm energy accounting, checking,
    faults (planted bugs among them), run the workload and collect its report.
    A single machine records its events into [trace]; a fleet given a
    [trace] records into a fresh router trace and one per shard instead.  With [check],
    a graph kernel's result is {!audit}ed, and the machine, the
    scheduler and CHARM's power-cap controller are verified after the
    run.

    A batch kernel's inputs are fixed by [t]: graphs of
    [2^graph_scale] vertices, a GUPS table of [2^(graph_scale+6)] words,
    Graph500 from 2 roots, streamcluster on 16384 points of 128
    dimensions, and SGD on 1024 samples, which [Dw_native] splits into
    one chunk per worker.
    @raise Invalid_argument on a configuration the simulator rejects.
    @raise Chipsim.Invariant.Violation when checking finds a violation. *)

val serve :
  ?trace:Engine.Trace.t ->
  ?on_complete:(tenant:string -> kind:Serving.Job.kind -> submit_ns:float -> finish_ns:float -> unit) ->
  t ->
  Harness.Systems.instance * Serving.Server.report
(** {!run}'s single-machine serving path, stopped before rendering: the
    instance it ran on (machine counters, energy meters, CHARM runtime)
    and the typed report.  [trace] receives the
    server's events;
    [on_complete] observes every completed job
    ({!Serving.Server.config}'s [on_complete]).
    @raise Invalid_argument unless [t.workload] is [Serve _]. *)

val fleet : ?trace:Engine.Trace.t -> t -> Fleet.Cluster.result
(** {!run}'s fleet path, stopped before rendering.  Given a [trace], the
    cluster records into a fresh router trace and one per shard
    ([result.traces]); the argument itself receives nothing.
    @raise Invalid_argument unless [t.workload] is [Fleet _]. *)

(** {1 Command line} *)

type defaults
(** The per-binary defaults: the one thing [charm_run] and [charm_serve]
    do not share. *)

val charm_run : defaults
(** [-w bfs -n 64 --graph-scale 13], no seed. *)

val charm_serve : defaults
(** [-w serve -n 32 --graph-scale 10 --seed 42]. *)

val cli : defaults -> doc:string -> unit
(** Parse [Sys.argv] with the shared flag table plus [--trace FILE], run,
    print the report (plus, for a batch run, a wall-clock [engine:] line)
    and save any trace; then exit.  Exit codes: 0 success, 2 a malformed
    flag or a rejected configuration (one line on stderr), 3 an invariant
    violation under [--check].  A flag given outside its branch's home
    (a serving flag on a batch kernel, [--router] without [--fleet N],
    [--rate] on a closed loop, ...) exits 2.  A negative number after a
    flag is that flag's value ([--seed -5] reads as [--seed=-5]). *)

val parse_argv : Cmdliner.Cmd.info -> 'a Cmdliner.Term.t -> 'a
(** Evaluate a term over [Sys.argv] as {!cli} does: [--help] prints and
    exits 0; a malformed flag value prints one line on stderr and exits
    2. *)

