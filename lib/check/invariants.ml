let catalog =
  [
    ( "sched.ready-at",
      "no quantum starts before the task's ready_at (futures, barriers and \
       spawn continuations never run early)" );
    ( "sched.offline-idle",
      "a worker whose core is offline (hotplug fault) never executes a \
       quantum, and dormant workers stay dormant" );
    ( "sched.core-ordering",
      "per core, quanta do not overlap in virtual time while the core \
       keeps the same occupant worker" );
    ( "sched.clock-monotonic",
      "each worker's virtual clock is finite and never moves backwards \
       across a quantum" );
    ( "sched.work-conservation",
      "the runnable-task counter equals the total queued work across all \
       deques at every quantum boundary, and every deque is empty once no \
       task is live" );
    ( "machine.fill-conservation",
      "PMU fill-class counts (L2 / local L3 / remote-chiplet / remote-NUMA \
       / local DRAM / remote DRAM) sum to exactly the number of simulated \
       accesses" );
    ( "machine.l3-ways",
      "every chiplet's effective L3 ways stay within [1, configured ways] \
       under way-masking faults" );
    ( "machine.directory-agreement",
      "every line in a chiplet's L3 has that chiplet's directory holder \
       bit, and every set holder bit is backed by a line in that chiplet's \
       L3 (way-loss faults and evictions leave no stale holders)" );
    ( "memchan.ring-conservation",
      "per memory node, live time-bin bytes never exceed the node's total \
       accounted bytes, bins are line-aligned and slot ids map back to \
       their own bins (no aliasing)" );
    ( "serve.arrival-conservation",
      "per tenant and globally, submitted = admitted + shed at every \
       arrival and in the final report" );
    ( "serve.completion",
      "every admitted job completes, is sampled in exactly one latency and \
       one queue-wait histogram, and the fair queue drains" );
    ( "serve.registry-agreement",
      "the metrics registry's global counters equal the sums of the \
       per-tenant ledgers" );
    ( "fleet.job-conservation",
      "across the cluster, jobs offered to the router equal shard \
       completions plus shard sheds plus router sheds, and per shard \
       completed + relocated_out = admitted (relocated jobs are never \
       lost or double-counted)" );
    ( "taskgraph.dag-precedence",
      "no task-DAG node observes a start time before every one of its \
       predecessors' recorded finish times (edges are real happens-before \
       constraints, even across chiplets and stolen quanta)" );
    ( "taskgraph.edge-byte-conservation",
      "per DAG job, the bytes charged through chiplet links equal exactly \
       the bytes on edges the mapping cuts — every cut edge transfers \
       once, no cut edge is skipped, no intra-chiplet edge pays" );
    ( "serve.energy-conservation",
      "per-chiplet energy sums equal the machine's combined (memory + \
       compute) meter, and in serving reports the per-tenant attributed \
       energy plus the overhead residual equals the machine's energy \
       growth to 1e-6 relative" );
    ( "charm.power-cap-respected",
      "the power-cap controller never observes a windowed power sample \
       above the cap without having shed at least one chiplet's frequency \
       in response (overcap-unshed audit counter stays 0), shed levels \
       stay within [floor, 1], and a capped run that peaked above the cap \
       records at least one shed" );
    ( "serve.replica-agreement",
      "a replica group's tokens are identical absent an injected \
       corruption, and the voted result always equals the honest \
       plurality recomputation (catches a voter that returns the first \
       replica unchecked)" );
    ( "fleet.no-offline-placement",
      "the router never places a job — fresh or relocated — onto a \
       fully-offline shard (online capacity 0); when every shard is \
       offline the job is shed at the router and accounted there" );
  ]
