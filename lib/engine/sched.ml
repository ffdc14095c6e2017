open Chipsim

exception Deadlock

type task_model =
  | Coroutines of { switch_ns : float }
  | Os_threads of { spawn_ns : float; switch_ns : float }

(* [Ctx.maybe_yield] yields after this many charged accesses *)
let max_accesses_per_quantum = 2048

(* clock advance for a worker that finds no work *)
let idle_quantum_ns = 400.0

(* charged to a worker when it changes core *)
let migration_cost_ns = 1500.0

(* thieves only steal tasks ready within this window past their own
   clock, so steals cannot drag a worker's clock into the far future *)
let steal_horizon_ns = 1_000.0

type t = {
  machine : Machine.t;
  task_model : task_model;
  mutable check : bool;  (* executable invariants on every quantum *)
  mutable check_tick : int;  (* quanta since the last periodic machine check *)
  mutable energy : bool;
      (* per-quantum compute-energy charging ({!Machine.charge_quantum}).
         Off by default: energy never affects virtual time, but keeping
         the meters untouched makes energy-off runs bit-identical to
         pre-energy baselines *)
  core_last_end : float array;
      (* per core: virtual end of the last quantum it executed, and the
         worker that ran it — the per-core non-overlap invariant *)
  core_last_worker : int array;
  hooks : hooks;
  mutable trace : Trace.t option;
  faults : Faults.Schedule.event array;  (* sorted by time, spec order kept *)
  mutable next_fault : int;  (* the first event not yet applied *)
  mutable fills_last : Pmu.fill_classes;  (* at the last traced [fills] sample *)
  mutable fills_last_ns : float;
  workers : worker array;
  core_owner : int array;  (* core -> worker id, -1 if free *)
  core_speed : float array;
      (* the live per-core DVFS factors ({!Modifiers.core_speeds}), read
         directly: a float returned across a module boundary is boxed *)
  kind_speed : float array;
      (* per-core static throughput multiplier from the topology's core
         kind (big=1.0); composes with the dynamic DVFS factor at quantum
         end.  Exactly 1.0 everywhere on homogeneous machines, keeping
         those runs bit-identical *)
  rank : int array;  (* cores x cores distance ranks (Latency.rank_matrix) *)
  ncores : int;
  mutable placement_epoch : int;
      (* bumped whenever any worker changes core; cached steal orders
         carry the epoch they were built under and lazily refresh *)
  mutable parked_count : int;  (* workers with parked && not offlined *)
  heap : heap;
  mutable live : int;
  mutable spawned : int;
  mutable runnable : int;
  mutable rr : int;  (* round-robin spawn cursor *)
  mutable next_tid : int;  (* per-instance so trace task ids are reproducible *)
  conc : float array;
      (* running sums over task finishes, in finish order: the last
         finish's time, then sum dt, sum v*dt and sum v*v*dt, where dt is
         the gap since the previous finish and v the live-task count
         (clamped to the worker count) that held over it *)
  mutable conc_v : int;  (* v since the last finish; -1 before the first *)
  nil : task;
      (* this scheduler's sentinel: it fills empty queue slots and stands
         for "no task", compared with == only; it never runs *)
}

and worker = {
  wid : int;
  mutable core : int;
  clock : float array;
      (* 1-element clock cell: {!Machine.access_clk} charges latency into
         it in place, so no boxed float crosses the per-access boundary *)
  busy_clock : float array;
      (* 1-element cell: the clock at the end of the last real quantum,
         written every quantum without boxing *)
  mutable did_work : bool;
  mutable parked : bool;  (* out of the heap, waiting for an enqueue *)
  mutable offlined : bool;  (* core lost with nowhere to migrate: dormant *)
  mutable redirect : int;  (* where an offlined worker's enqueues go; -1 none *)
  (* Two-lane run queue.  [ready] is the run deque holding every queued
     task in service order; not-yet-due tasks (timers, pending arrivals,
     children spawned ahead of time) additionally mirror their ready_at
     into [pend_keys], a binary min-heap of bare floats.  The heap is
     advisory: keys are never deleted when their task leaves the deque (a
     steal, an offline drain), so the root may be stale — but every
     queued future task has a live key, stale keys only ever sit at or
     below the true minimum, and a failed deque sweep proves keys <= the
     clock stale, so draining them converges on the exact clock advance
     the old full-deque rescan computed.  This keeps pop_own's run-dry
     path at O(log n) per advance instead of the old O(n) rescan per
     pick, without perturbing service order by a single task. *)
  ready : dq;
  mutable pend_keys : float array;
  mutable pend_size : int;
  mutable victims : int array;  (* cached default steal order *)
  mutable victims_epoch : int;  (* placement_epoch it was built under *)
  mutable accesses : int;  (* this quantum *)
}

(* A task is also the [ctx] its body receives: it carries its
   scheduler, so a spawn allocates no separate context record *)
and task = {
  tid : int;
  csched : t;
  mutable coro : Coroutine.t;  (* set once, right after the record is built *)
  ready_at : float array;
      (* 1-element cell: a mutable float field of this mixed record would
         hold a box, and every requeue would allocate a new one *)
  mutable last_worker : int;
  mutable finished : bool;
  mutable waiters : task list;
}

and ctx = task

and hooks = {
  on_quantum_end : t -> int -> unit;
  steal_order : t -> thief:int -> int array;
}

(* specialised task ring deque: empty slots hold the scheduler's [nil]
   task, so pushes and pops move bare pointers with no option boxing *)
and dq = {
  mutable dbuf : task array;
  mutable dtop : int;  (* index of oldest element *)
  mutable dbot : int;  (* one past newest element *)
}

(* -- min-heap of (clock, worker id) with lazy deletion ------------------- *)
and heap = {
  mutable keys : float array;
  mutable vals : int array;
  mutable size : int;
}

let heap_create n = { keys = Array.make (max n 4) 0.0; vals = Array.make (max n 4) 0; size = 0 }

(* push worker [w] keyed by its clock; reading the clock here rather than
   taking it as an argument keeps the key unboxed *)
let heap_push h w =
  let key = w.clock.(0) and v = w.wid in
  if h.size = Array.length h.keys then begin
    let keys = Array.make (2 * h.size) 0.0 and vals = Array.make (2 * h.size) 0 in
    Array.blit h.keys 0 keys 0 h.size;
    Array.blit h.vals 0 vals 0 h.size;
    h.keys <- keys;
    h.vals <- vals
  end;
  let i = ref h.size in
  h.size <- h.size + 1;
  h.keys.(!i) <- key;
  h.vals.(!i) <- v;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if h.keys.(parent) > h.keys.(!i) then begin
      let tk = h.keys.(parent) and tv = h.vals.(parent) in
      h.keys.(parent) <- h.keys.(!i);
      h.vals.(parent) <- h.vals.(!i);
      h.keys.(!i) <- tk;
      h.vals.(!i) <- tv;
      i := parent
    end
    else continue_ := false
  done

(* pop the root and return its worker id, or -1 when the heap is empty;
   the caller reads the root's key from [h.keys.(0)] first, so no
   (key, id) pair is built *)
let heap_pop h =
  if h.size = 0 then -1
  else begin
    let v = h.vals.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.keys.(0) <- h.keys.(h.size);
      h.vals.(0) <- h.vals.(h.size);
      let i = ref 0 and continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && h.keys.(l) < h.keys.(!smallest) then smallest := l;
        if r < h.size && h.keys.(r) < h.keys.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tk = h.keys.(!smallest) and tv = h.vals.(!smallest) in
          h.keys.(!smallest) <- h.keys.(!i);
          h.vals.(!smallest) <- h.vals.(!i);
          h.keys.(!i) <- tk;
          h.vals.(!i) <- tv;
          i := !smallest
        end
        else continue_ := false
      done
    end;
    v
  end

(* -- task deque and pending heap ----------------------------------------- *)

(* A deque starts with no buffer, since [nil] does not exist yet when
   the workers are built; its first push allocates one.  The operations
   that empty a slot take the scheduler's [nil] to fill it with. *)
let dq_create () = { dbuf = [||]; dtop = 0; dbot = 0 }
let dq_length q = q.dbot - q.dtop
let dq_is_empty q = q.dbot = q.dtop
let dq_slot q i = i land (Array.length q.dbuf - 1)

let dq_grow q nil =
  let old = q.dbuf in
  let cap = Array.length old in
  let cap' = max 16 (cap * 2) in
  let buf = Array.make cap' nil in
  for i = q.dtop to q.dbot - 1 do
    buf.(i land (cap' - 1)) <- old.(i land (cap - 1))
  done;
  q.dbuf <- buf

let dq_push q nil x =
  if dq_length q = Array.length q.dbuf then dq_grow q nil;
  q.dbuf.(dq_slot q q.dbot) <- x;
  q.dbot <- q.dbot + 1

(* the caller makes sure [q] is not empty *)
let dq_pop_front q nil =
  let i = dq_slot q q.dtop in
  let x = q.dbuf.(i) in
  q.dbuf.(i) <- nil;
  q.dtop <- q.dtop + 1;
  x

let dq_get q i = q.dbuf.(dq_slot q (q.dtop + i))

(* remove the [i]-th element from the front, preserving the relative order
   of everything else: the [i] elements ahead of it shift back one slot *)
let dq_remove q nil i =
  let j = ref i in
  while !j > 0 do
    q.dbuf.(dq_slot q (q.dtop + !j)) <- q.dbuf.(dq_slot q (q.dtop + !j - 1));
    decr j
  done;
  q.dbuf.(dq_slot q q.dtop) <- nil;
  q.dtop <- q.dtop + 1

(* the pending heap holds bare ready_at keys, nothing else: values are
   never needed (the deque owns the tasks) and bare floats keep the heap
   unboxed end to end; the key is read from [task] here, not passed in,
   so it never crosses a call boxed *)
let pend_push w task =
  let key = task.ready_at.(0) in
  let n = w.pend_size in
  if n = Array.length w.pend_keys then begin
    let keys = Array.make (max 8 (2 * n)) 0.0 in
    Array.blit w.pend_keys 0 keys 0 n;
    w.pend_keys <- keys
  end;
  w.pend_size <- n + 1;
  let keys = w.pend_keys in
  let i = ref n in
  keys.(!i) <- key;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 2 in
    if keys.(!i) < keys.(p) then begin
      let tk = keys.(p) in
      keys.(p) <- keys.(!i);
      keys.(!i) <- tk;
      i := p
    end
    else continue_ := false
  done

(* caller must ensure [w.pend_size > 0] *)
let pend_drop_root w =
  let keys = w.pend_keys in
  let n = w.pend_size - 1 in
  w.pend_size <- n;
  keys.(0) <- keys.(n);
  let i = ref 0 and continue_ = ref true in
  while !continue_ do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let s = ref !i in
    if l < n && keys.(l) < keys.(!s) then s := l;
    if r < n && keys.(r) < keys.(!s) then s := r;
    if !s <> !i then begin
      let tk = keys.(!s) in
      keys.(!s) <- keys.(!i);
      keys.(!i) <- tk;
      i := !s
    end
    else continue_ := false
  done

let run_queue_len w = dq_length w.ready

(* ------------------------------------------------------------------------ *)

(* Cached per-worker victim order, sorted by (distance rank, wid) from the
   precomputed rank matrix.  Rebuilt lazily after any placement change
   (placement_epoch bump) instead of list-building, classifying and
   tuple-sorting on every failed pop. *)
let default_steal_order t ~thief =
  let w = t.workers.(thief) in
  if w.victims_epoch <> t.placement_epoch then begin
    let n = Array.length t.workers in
    if Array.length w.victims <> n - 1 then w.victims <- Array.make (n - 1) 0;
    let j = ref 0 in
    for v = 0 to n - 1 do
      if v <> thief then begin
        w.victims.(!j) <- v;
        incr j
      end
    done;
    let base = w.core * t.ncores in
    let rank = t.rank and workers = t.workers in
    Array.sort
      (fun a b ->
        let ra = rank.(base + workers.(a).core)
        and rb = rank.(base + workers.(b).core) in
        if ra <> rb then compare ra rb else compare a b)
      w.victims;
    w.victims_epoch <- t.placement_epoch
  end;
  w.victims

let no_hooks =
  { on_quantum_end = (fun _ _ -> ()); steal_order = (fun t ~thief -> default_steal_order t ~thief) }

let random_steal_order rng t ~thief =
  let n = Array.length t.workers in
  let victims = Array.make (n - 1) 0 in
  for v = 0 to n - 2 do
    victims.(v) <- (if v < thief then v else v + 1)
  done;
  Rng.shuffle rng victims;
  victims

let create ?(task_model = Coroutines { switch_ns = 30.0 }) ?(hooks = no_hooks) ?(faults = [])
    machine ~n_workers ~placement =
  if n_workers <= 0 then invalid_arg "Sched.create: n_workers must be positive";
  let topo = Machine.topology machine in
  let cores = Topology.num_cores topo in
  let core_owner = Array.make cores (-1) in
  let workers =
    Array.init n_workers (fun wid ->
        let core = placement wid in
        Topology.validate_core topo core;
        if core_owner.(core) <> -1 then
          invalid_arg
            (Printf.sprintf "Sched.create: core %d assigned to workers %d and %d"
               core core_owner.(core) wid);
        core_owner.(core) <- wid;
        {
          wid;
          core;
          clock = Array.make 1 0.0;
          busy_clock = Array.make 1 0.0;
          did_work = false;
          parked = false;
          offlined = false;
          redirect = -1;
          ready = dq_create ();
          pend_keys = Array.make 8 0.0;
          pend_size = 0;
          victims = [||];
          victims_epoch = -1;
          accesses = 0;
        })
  in
  let heap = heap_create n_workers in
  Array.iter (fun w -> heap_push heap w) workers;
  let nil_ready_at = [| 0.0 |] in
  let rec t =
  {
    machine;
    task_model;
    check = false;
    check_tick = 0;
    energy = false;
    core_last_end = Array.make cores neg_infinity;
    core_last_worker = Array.make cores (-1);
    hooks;
    trace = None;
    faults = Array.of_list (Faults.Schedule.sort faults);
    next_fault = 0;
    fills_last = Pmu.zero_fill_classes;
    fills_last_ns = 0.0;
    workers;
    core_owner;
    core_speed = Modifiers.core_speeds (Machine.modifiers machine);
    kind_speed = Array.init cores (fun c -> Topology.core_speed topo c);
    rank = Latency.rank_matrix topo;
    ncores = cores;
    placement_epoch = 0;
    parked_count = 0;
    heap;
    live = 0;
    spawned = 0;
    runnable = 0;
    rr = 0;
    next_tid = 0;
    conc = Array.make 4 0.0;
    conc_v = -1;
    nil;
  }
  and nil =
    { tid = -1; csched = t; coro = Coroutine.finished; ready_at = nil_ready_at;
      last_worker = -1; finished = true; waiters = [] }
  in
  t

let machine t = t.machine
let n_workers t = Array.length t.workers
let hooks t = t.hooks
let set_trace t trace = t.trace <- trace
let trace t = t.trace
let set_check t on = t.check <- on
let check_enabled t = t.check
let set_energy t on = t.energy <- on
let worker_core t w = t.workers.(w).core
let worker_clock t w = t.workers.(w).clock.(0)
let worker_clock_cell t w = t.workers.(w).clock
let worker_offlined t w = t.workers.(w).offlined

let active_workers t =
  Array.fold_left (fun acc w -> if w.offlined then acc else acc + 1) 0 t.workers

let worker_of_core t core =
  if core < 0 || core >= Array.length t.core_owner then -1 else t.core_owner.(core)

let ready_queue_ids t w =
  let q = t.workers.(w).ready in
  List.init (dq_length q) (fun i -> (dq_get q i).tid)

let heap_snapshot t =
  Array.init t.heap.size (fun i -> (t.heap.keys.(i), t.heap.vals.(i)))

let total_spawned t = t.spawned

let max_clock t = Array.fold_left (fun acc w -> Float.max acc w.clock.(0)) 0.0 t.workers

let makespan t =
  Array.fold_left (fun acc w -> if w.did_work then Float.max acc w.busy_clock.(0) else acc) 0.0 t.workers

(* [Float.max], same nan and signed-zero rules, inlined here so neither
   argument nor result is boxed *)
let[@inline] fmax (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

(* A task finished at [now]: the count that held since the previous
   finish is weighted by the gap, and the count after this finish holds
   from here.  The sums add in finish order, as a fold over every
   (time, count) sample would. *)
let[@inline] sample_concurrency t now =
  let c = t.conc in
  if t.conc_v >= 0 then begin
    let dt = fmax 0.0 (now -. c.(0)) and v = float_of_int t.conc_v in
    c.(1) <- c.(1) +. dt;
    c.(2) <- c.(2) +. (v *. dt);
    c.(3) <- c.(3) +. (v *. v *. dt)
  end;
  c.(0) <- now;
  t.conc_v <- min t.live (Array.length t.workers)

let concurrency t =
  let c = t.conc in
  if c.(1) <= 0.0 then (0.0, 0.0)
  else begin
    let mean = c.(2) /. c.(1) in
    (mean, (c.(3) /. c.(1)) -. (mean *. mean))
  end

let migrate t ~worker ~core =
  let w = t.workers.(worker) in
  if w.core <> core && Modifiers.core_online (Machine.modifiers t.machine) core
  then begin
    (* migrating onto an offline core is silently refused rather than
       raised: fault-blind policies (the OS-default wanderer) keep trying
       arbitrary cores, exactly as a real kernel's load balancer skips
       offlined CPUs *)
    let topo = Machine.topology t.machine in
    Topology.validate_core topo core;
    if t.core_owner.(core) <> -1 then
      invalid_arg
        (Printf.sprintf "Sched.migrate: core %d already owned by worker %d" core
           t.core_owner.(core));
    let from_core = w.core in
    t.core_owner.(w.core) <- -1;
    t.core_owner.(core) <- worker;
    w.core <- core;
    t.placement_epoch <- t.placement_epoch + 1;
    w.clock.(0) <- w.clock.(0) +. migration_cost_ns;
    Pmu.incr (Machine.pmu t.machine) ~core Pmu.Migration;
    match t.trace with
    | Some tr ->
        Trace.migration tr ~worker ~from_core ~to_core:core ~at_ns:w.clock.(0)
    | None -> ()
  end


(* The float-taking helpers below are [@inline]: a float passed to a call
   that is not inlined is boxed, and these run per quantum or per task. *)
let[@inline] unpark t w ~at =
  if w.parked && not w.offlined then begin
    w.parked <- false;
    t.parked_count <- t.parked_count - 1;
    if at > w.clock.(0) then w.clock.(0) <- at;
    heap_push t.heap w
  end

(* Wake the parked worker closest to [near] so it can steal.  [near]'s
   cached victim order is exactly the ascending-distance scan (lowest wid
   first within a class), so the first parked entry is the old
   full-scan minimum — without classifying every worker pair, and with a
   counter fast-path when nobody is parked at all. *)
let[@inline] wake_one_thief t ~near ~at =
  if t.parked_count > 0 then begin
    let order = default_steal_order t ~thief:near.wid in
    let n = Array.length order in
    let i = ref 0 in
    while !i < n do
      let w = t.workers.(order.(!i)) in
      if w.parked && not w.offlined then begin
        unpark t w ~at;
        i := n
      end
      else incr i
    done
  end

(* Resolve an offlined worker to the live worker its queue was drained
   into; the chain is bounded by the worker count (redirects only ever
   point at workers that were live at drain time). *)
let live_target t wid =
  let wid = ref wid and guard = ref (Array.length t.workers) in
  while
    let w = t.workers.(!wid) in
    w.offlined && w.redirect >= 0 && !guard > 0
  do
    wid := t.workers.(!wid).redirect;
    decr guard
  done;
  !wid

let enqueue t task =
  let target = live_target t task.last_worker in
  task.last_worker <- target;
  let w = t.workers.(target) in
  dq_push w.ready t.nil task;
  if task.ready_at.(0) > w.clock.(0) then pend_push w task;
  t.runnable <- t.runnable + 1;
  unpark t w ~at:task.ready_at.(0);
  if run_queue_len w >= 2 then
    wake_one_thief t ~near:w ~at:(fmax w.clock.(0) task.ready_at.(0))

(* a spawn allocates the task, its ready-time cell and its coroutine,
   which applies [body] to the task itself: no closure, no context *)
let[@inline] spawn_on t ~worker ~at body =
  t.next_tid <- t.next_tid + 1;
  let task =
    { tid = t.next_tid; csched = t; coro = Coroutine.finished; ready_at = [| at |];
      last_worker = worker; finished = false; waiters = [] }
  in
  task.coro <- Coroutine.create_app body task;
  t.live <- t.live + 1;
  t.spawned <- t.spawned + 1;
  enqueue t task;
  task

let spawn t ?worker ?(at = 0.0) body =
  let worker =
    match worker with
    | Some w ->
        if w < 0 || w >= Array.length t.workers then
          invalid_arg "Sched.spawn: worker out of range";
        w
    | None ->
        (* skip dormant workers so round-robin spawns land on live queues
           directly (enqueue would redirect anyway, but the rr cursor
           should keep distributing evenly over the survivors) *)
        let n = Array.length t.workers in
        let w = ref t.rr and tries = ref 0 in
        t.rr <- (t.rr + 1) mod n;
        while t.workers.(!w).offlined && !tries < n do
          incr tries;
          w := t.rr;
          t.rr <- (t.rr + 1) mod n
        done;
        !w
  in
  spawn_on t ~worker ~at body

let[@inline] ready_at t task at =
  task.ready_at.(0) <- fmax task.ready_at.(0) at;
  enqueue t task

let ready t ?at task =
  if task.finished then invalid_arg "Sched.ready: task already finished";
  match at with Some at -> ready_at t task at | None -> enqueue t task

(* Pop the next runnable task: the first task in queue order whose
   ready_at is within the worker's clock, rotating the not-yet-due prefix
   to the back — the same discipline as the original single-deque
   scheduler, because downstream service order depends on it.  When every
   queued task is in the future, the clock advances to the earliest
   ready_at; the advisory heap supplies that minimum in O(log n) where
   the old code re-scanned the whole deque per pick.  Returns [nil] when
   the queue is empty. *)
let rec pop_own_slow nil w =
  let len = dq_length w.ready in
  if len = 0 then nil
  else begin
    let clock = w.clock.(0) in
    let found = ref nil and i = ref 0 in
    while !i < len do
      let task = dq_pop_front w.ready nil in
      if task.ready_at.(0) <= clock then begin
        found := task;
        i := len
      end
      else begin
        dq_push w.ready nil task;
        incr i
      end
    done;
    let found = !found in
    if found != nil then found
    else begin
      (* Nothing due: every queued task mirrors a live heap key above the
         clock, and any key at or below it is provably stale (its task
         would have been found by the sweep) — drop those, advance to the
         root and retry.  A stale root between the clock and the true
         minimum only costs one extra sweep before it is dropped in
         turn. *)
      while w.pend_size > 0 && w.pend_keys.(0) <= w.clock.(0) do
        pend_drop_root w
      done;
      if w.pend_size > 0 then w.clock.(0) <- w.pend_keys.(0)
      else begin
        (* The heap can run dry with future tasks still queued: a
           fast-core (speed > 1) quantum rescale pulls the clock
           backward past tasks that were due when enqueued, so no key
           was ever pushed for them.  Recover the minimum by scanning
           the deque — rare, and bounded by the queue length. *)
        let m = ref infinity in
        for i = 0 to len - 1 do
          let task = dq_get w.ready i in
          if task.ready_at.(0) < !m then m := task.ready_at.(0)
        done;
        w.clock.(0) <- !m
      end;
      pop_own_slow nil w
    end
  end

(* fast path: the front task is due (the steady state when the queue
   holds running work rather than timers) — no sweep state to set up *)
let pop_own nil w =
  let q = w.ready in
  if dq_is_empty q then nil
  else begin
    let front = dq_get q 0 in
    if front.ready_at.(0) <= w.clock.(0) then begin
      q.dbuf.(dq_slot q q.dtop) <- nil;
      q.dtop <- q.dtop + 1;
      front
    end
    else pop_own_slow nil w
  end

(* Steal from one victim, skipping tasks scheduled beyond the thief's
   steal horizon: running a far-future task (a timer, a pending arrival)
   would drag the thief's clock forward, and every ready task it later
   touches would finish "in the future".  The victim's deque is scanned
   in place oldest-first and only the stolen task is removed, so refusals
   leave the owner's run order untouched (re-pushing refused tasks to the
   back would rotate it).  A stolen future task leaves its advisory heap
   key behind; the owner's next run-dry sweep drops it as stale. *)
let steal_ready nil w victim =
  let horizon = w.clock.(0) +. steal_horizon_ns in
  let n = dq_length victim.ready in
  let found = ref nil and i = ref 0 in
  while !i < n do
    let task = dq_get victim.ready !i in
    if task.ready_at.(0) <= horizon then begin
      dq_remove victim.ready nil !i;
      found := task;
      i := n
    end
    else incr i
  done;
  !found

let try_steal t w =
  let order = t.hooks.steal_order t ~thief:w.wid in
  let topo = Machine.topology t.machine in
  let found = ref t.nil and i = ref 0 in
  while !i < Array.length order do
    let victim = t.workers.(order.(!i)) in
    let task = steal_ready t.nil w victim in
    if task != t.nil then begin
      let cost =
        2.0 *. Latency.core_to_core_ns ~profile:(Machine.profile t.machine) topo w.core victim.core
      in
      w.clock.(0) <- w.clock.(0) +. cost;
      Pmu.incr (Machine.pmu t.machine) ~core:w.core Pmu.Task_stolen;
      (match t.trace with
      | Some tr ->
          Trace.steal tr ~thief:w.wid ~victim:victim.wid ~task_id:task.tid
            ~at_ns:w.clock.(0)
      | None -> ());
      if run_queue_len victim > 0 then
        wake_one_thief t ~near:victim ~at:w.clock.(0);
      found := task;
      i := Array.length order
    end
    else incr i
  done;
  !found

(* Single horizon-filtered steal attempt: returns the stolen task id, or
   -1 when every queued task was refused.  A stolen task leaves the
   scheduler's accounting (the caller owns it).  The event loop steals
   through [try_steal]; this one attempt by hand is what the refused-steal
   regression test observes, and CI's dead-export step allowlists it. *)
let steal_once t ~thief ~victim =
  let task = steal_ready t.nil t.workers.(thief) t.workers.(victim) in
  if task == t.nil then -1
  else begin
    t.runnable <- t.runnable - 1;
    task.tid
  end

let next_task t w =
  let task = pop_own t.nil w in
  let task = if task == t.nil then try_steal t w else task in
  if task != t.nil then t.runnable <- t.runnable - 1;
  task

(* -- executable invariants (config.check / set_check) --------------------

   Each check is a cheap assertion over state the scheduler already has in
   hand; together they pin down the properties every perf PR must
   preserve: causality (no task before its ready time), per-core quantum
   ordering, offline cores staying idle, and work conservation. *)

(* Every task accounted runnable sits in exactly one lane of exactly one
   worker, and the parked-worker counter matches the flags.  O(workers),
   so it runs on the periodic tick, not every quantum. *)
let check_work_conservation t =
  let queued =
    Array.fold_left (fun acc w -> acc + run_queue_len w) 0 t.workers
  in
  if queued <> t.runnable then
    Invariant.fail "sched: %d tasks queued but %d accounted runnable" queued
      t.runnable;
  let parked =
    Array.fold_left
      (fun acc w -> if w.parked && not w.offlined then acc + 1 else acc)
      0 t.workers
  in
  if parked <> t.parked_count then
    Invariant.fail "sched: %d workers parked but %d counted" parked
      t.parked_count

let machine_check_period = 64

let check_quantum_start t w task =
  if w.offlined then
    Invariant.fail "sched: dormant worker %d executing task %d" w.wid task.tid;
  if not (Modifiers.core_online (Machine.modifiers t.machine) w.core) then
    Invariant.fail "sched: worker %d executing task %d on offline core %d"
      w.wid task.tid w.core;
  if w.clock.(0) < task.ready_at.(0) then
    Invariant.fail
      "sched: task %d starts at %.3f ns, before its ready time %.3f ns (worker %d)"
      task.tid w.clock.(0) task.ready_at.(0) w.wid

let check_quantum_end t w task ~quantum_start =
  if not (Float.is_finite w.clock.(0)) || w.clock.(0) < quantum_start then
    Invariant.fail
      "sched: worker %d clock went from %.3f to %.3f ns across task %d's quantum"
      w.wid quantum_start w.clock.(0) task.tid;
  (* Per-core non-overlap: consecutive quanta on one core must not overlap
     in virtual time while the core keeps the same occupant.  After a
     hand-over (migration / hotplug) the new worker's clock is independent
     of the previous occupant's, so a fresh baseline is recorded. *)
  if
    t.core_last_worker.(w.core) = w.wid
    && quantum_start < t.core_last_end.(w.core) -. 1e-9
  then
    Invariant.fail
      "sched: core %d quantum [%.3f, %.3f] overlaps the previous one ending at %.3f"
      w.core quantum_start w.clock.(0) t.core_last_end.(w.core);
  t.core_last_worker.(w.core) <- w.wid;
  t.core_last_end.(w.core) <- w.clock.(0);
  t.check_tick <- t.check_tick + 1;
  if t.check_tick >= machine_check_period then begin
    t.check_tick <- 0;
    Machine.check_invariants t.machine;
    check_work_conservation t
  end

let check_quiescent t =
  check_work_conservation t;
  Array.iter
    (fun w ->
      if t.live = 0 && run_queue_len w > 0 then
        Invariant.fail
          "sched: no live tasks but worker %d still queues %d of them" w.wid
          (run_queue_len w))
    t.workers;
  Machine.check_invariants_full t.machine

(* The Fig. 3 signal the policy consumes: the machine-wide fill-class
   counts since the last sample, once per 50 us of virtual time, stamped
   with the clock of the worker whose quantum ended *)
let sample_fills t tr w =
  let now = w.clock.(0) in
  if now -. t.fills_last_ns >= 50_000.0 then begin
    let fills = Pmu.fill_classes (Machine.pmu t.machine) in
    let d = Pmu.fill_classes_delta ~before:t.fills_last ~after:fills in
    let v n = float_of_int n in
    Trace.counter tr ~name:"fills" ~at_ns:now
      ~series:
        [ ("local", v d.fc_local); ("remote_chiplet", v d.fc_remote_chiplet);
          ("remote_numa", v d.fc_remote_numa); ("dram", v d.fc_dram) ];
    t.fills_last <- fills;
    t.fills_last_ns <- now
  end

(* make [waiters] ready at [w]'s clock, in list order *)
let rec wake_waiters t w = function
  | [] -> ()
  | waiter :: rest ->
      ready_at t waiter w.clock.(0);
      wake_waiters t w rest

let execute t w task =
  if
    task.ready_at.(0) > w.clock.(0)
    && not (Modifiers.planted (Machine.modifiers t.machine) Invariant.Skip_ready_clamp)
  then
    w.clock.(0) <- task.ready_at.(0);
  if t.check then check_quantum_start t w task;
  (* the quantum starts here, after the ready-time clamp: idle waiting and
     steal latency before this point belong to no task *)
  let quantum_start = w.clock.(0) in
  w.accesses <- 0;
  let pmu = Machine.pmu t.machine in
  (match t.task_model with
  | Coroutines { switch_ns } -> w.clock.(0) <- w.clock.(0) +. switch_ns
  | Os_threads { switch_ns; _ } ->
      (* oversubscription: kernel switching degrades with the ratio of
         runnable threads to cores *)
      let over = float_of_int t.live /. float_of_int (Array.length t.workers) in
      w.clock.(0) <- w.clock.(0) +. (switch_ns *. Float.max 1.0 over));
  Pmu.incr pmu ~core:w.core Pmu.Context_switch;
  task.last_worker <- w.wid;
  let result = Coroutine.resume task.coro in
  (* DVFS: a slowed core retires the same work in proportionally more
     virtual time.  Rescaling at quantum end keeps the memory model exact
     (accesses were charged at nominal latency inside the quantum) while
     the task's forward progress per nanosecond drops with core speed. *)
  (* compose dynamic DVFS with the static kind speed: a little core's
     quantum runs proportionally longer, an accelerator tile's shorter *)
  let dvfs = Array.unsafe_get t.core_speed w.core in
  let speed = dvfs *. Array.unsafe_get t.kind_speed w.core in
  if speed <> 1.0 then
    w.clock.(0) <- quantum_start +. ((w.clock.(0) -. quantum_start) /. speed);
  if t.energy then begin
    let dt_ns = w.clock.(0) -. quantum_start in
    if dt_ns > 0.0 then
      Machine.charge_quantum t.machine ~core:w.core ~dt_ns ~dvfs
  end;
  (match result with
  | Coroutine.Yielded ->
      (* remember the progress point: if a lagging thief later steals this
         task it must resume at or after where it left off, or task-local
         time would run backward *)
      task.ready_at.(0) <- w.clock.(0);
      enqueue t task
  | Coroutine.Suspended -> task.ready_at.(0) <- w.clock.(0)
  | Coroutine.Finished ->
      task.finished <- true;
      t.live <- t.live - 1;
      Pmu.incr pmu ~core:w.core Pmu.Task_executed;
      sample_concurrency t w.clock.(0);
      let waiters = task.waiters in
      task.waiters <- [];
      wake_waiters t w waiters);
  w.did_work <- true;
  w.busy_clock.(0) <- w.clock.(0);
  (* emit before the policy hook runs: a migration decided at quantum end
     must not retroactively relabel the core this quantum ran on *)
  (match t.trace with
  | Some tr ->
      Trace.task_quantum tr ~worker:w.wid ~core:w.core ~task_id:task.tid
        ~start_ns:quantum_start ~end_ns:w.clock.(0);
      if t.check then check_quantum_end t w task ~quantum_start;
      sample_fills t tr w
  | None -> if t.check then check_quantum_end t w task ~quantum_start);
  t.hooks.on_quantum_end t w.wid

(* A core went offline.  Preference order: migrate its worker to the
   nearest free online core; otherwise park the worker dormant and drain
   its queue into the nearest surviving worker.  The last active worker is
   never offlined — the simulation must be able to drain. *)
let handle_core_offline t ~core =
  match worker_of_core t core with
  | -1 -> ()
  | wid ->
      let w = t.workers.(wid) in
      let mods = Machine.modifiers t.machine in
      let base = core * t.ncores in
      let best = ref (-1) and best_rank = ref max_int in
      Array.iteri
        (fun c owner ->
          if owner = -1 && Modifiers.core_online mods c then begin
            let r = t.rank.(base + c) in
            if r < !best_rank then begin
              best_rank := r;
              best := c
            end
          end)
        t.core_owner;
      if !best >= 0 then migrate t ~worker:wid ~core:!best
      else if active_workers t > 1 then begin
        if w.parked then t.parked_count <- t.parked_count - 1;
        w.offlined <- true;
        w.parked <- true;
        let dest = ref (-1) and dest_rank = ref max_int in
        Array.iter
          (fun w' ->
            if w'.wid <> wid && not w'.offlined then begin
              let r = t.rank.(base + w'.core) in
              if r < !dest_rank then begin
                dest_rank := r;
                dest := w'.wid
              end
            end)
          t.workers;
        if !dest >= 0 then begin
          let d = t.workers.(!dest) in
          w.redirect <- d.wid;
          (* append the dead worker's queue to the survivor's in order,
             mirroring future ready times into the survivor's heap; the
             dead worker's own heap keys are orphaned wholesale *)
          while not (dq_is_empty w.ready) do
            let task = dq_pop_front w.ready t.nil in
            task.last_worker <- d.wid;
            dq_push d.ready t.nil task;
            if task.ready_at.(0) > d.clock.(0) then pend_push d task
          done;
          w.pend_size <- 0;
          unpark t d ~at:w.clock.(0)
        end
      end

(* A previously offlined core came back.  Only workers that went dormant
   in place are revived; a worker that migrated away stays where it is
   (its old core is simply available again as a migration target). *)
let handle_core_online t ~core ~at =
  match worker_of_core t core with
  | -1 -> ()
  | wid ->
      let w = t.workers.(wid) in
      if w.offlined then begin
        w.offlined <- false;
        w.redirect <- -1;
        if at > w.clock.(0) then w.clock.(0) <- at;
        w.parked <- true;
        t.parked_count <- t.parked_count + 1;
        unpark t w ~at
      end

(* Apply one fault event.  The trace stamps it at its scheduled instant,
   not the frontier it lands at, so the trace shows the fault where the
   schedule put it and replays do not depend on quantum granularity. *)
let apply_fault t { Faults.Schedule.at_ns = at; kind } =
  let mods = Machine.modifiers t.machine in
  (match kind with
  | Faults.Schedule.Core_off c ->
      Modifiers.set_core_online mods c false;
      handle_core_offline t ~core:c
  | Core_on c ->
      Modifiers.set_core_online mods c true;
      handle_core_online t ~core:c ~at
  | Dvfs { core; speed } -> Modifiers.set_core_speed mods core speed
  | L3_ways { chiplet; ways } -> Machine.set_l3_ways t.machine ~chiplet ~ways
  | Link { chiplet; mult } -> Modifiers.set_link_mult mods chiplet mult
  | Xsocket m -> Modifiers.set_xsocket_mult mods m
  | Membw { node; factor } -> Machine.set_mem_capacity_factor t.machine ~node factor
  | Corruption { seed } -> Modifiers.arm_corruption mods ~seed
  | Plant p -> Modifiers.arm_plant mods p);
  match t.trace with
  | Some tr -> Trace.fault tr ~desc:(Faults.Schedule.describe kind) ~at_ns:at
  | None -> ()

let[@inline] apply_due_faults t ~now =
  while t.next_fault < Array.length t.faults && t.faults.(t.next_fault).at_ns <= now do
    apply_fault t t.faults.(t.next_fault);
    t.next_fault <- t.next_fault + 1
  done

let run t =
  let rec loop () =
    if t.live = 0 then ()
    else if t.heap.size = 0 then
      (* every worker parked while tasks remain: they are all suspended
         with nobody left to wake them *)
      raise Deadlock
    else begin
      let key = t.heap.keys.(0) in
      let wid = heap_pop t.heap in
      let w = t.workers.(wid) in
      if w.offlined then
        (* dormant worker's stale heap entry: drop it *)
        loop ()
      else begin
        (* [key] is the event-loop frontier — no worker can run earlier
           than it, so faults due at or before it apply deterministically
           here, at a quantum boundary *)
        apply_due_faults t ~now:key;
        if w.offlined then loop ()
        else if key < w.clock.(0) then begin
          (* stale heap entry; reinsert with the fresh clock *)
          heap_push t.heap w;
          loop ()
        end
        else begin
          let task = next_task t w in
          if task != t.nil then begin
            execute t w task;
            heap_push t.heap w
          end
          else begin
            (* Nothing to run or steal: park until an enqueue wakes us.
               A short idle advance models the real polling interval. *)
            (match t.trace with
            | Some tr -> Trace.park tr ~worker:wid ~at_ns:w.clock.(0)
            | None -> ());
            w.clock.(0) <- w.clock.(0) +. idle_quantum_ns;
            w.parked <- true;
            t.parked_count <- t.parked_count + 1
          end;
          loop ()
        end
      end
    end
  in
  loop ();
  if t.check then check_quiescent t;
  makespan t

module Ctx = struct
  let sched c = c.csched
  let machine c = c.csched.machine

  let[@inline] worker c = c.csched.workers.(c.last_worker)
  let now c = (worker c).clock.(0)
  let worker_id c = c.last_worker
  let core c = (worker c).core
  let quantum_accesses c = (worker c).accesses

  let charge c ns =
    let w = worker c in
    w.clock.(0) <- w.clock.(0) +. ns

  (* [read] and [write] are one call into {!Machine.access_clk} each:
     these helpers inline into them *)
  let[@inline] access_addr c ~write addr =
    let w = worker c in
    Machine.access_clk c.csched.machine ~core:w.core ~write addr w.clock 0;
    w.accesses <- w.accesses + 1

  let read c region i = access_addr c ~write:false (Simmem.addr region i)
  let write c region i = access_addr c ~write:true (Simmem.addr region i)

  (* Long ranges are charged in bounded chunks with a yield in between so
     concurrent workers stay aligned in virtual time (the DRAM contention
     model bins demand by virtual time, and cooperative scheduling must
     not let one worker race thousands of lines ahead). *)
  let range c ~write region ~lo ~hi =
    let line_bytes = (Machine.topology c.csched.machine).Topology.line_bytes in
    let elems_per_chunk =
      max 1 (max_accesses_per_quantum * line_bytes / (2 * region.Simmem.elt_bytes))
    in
    let pos = ref lo in
    while !pos < hi do
      let stop = min hi (!pos + elems_per_chunk) in
      let w = worker c in
      Machine.touch_range_clk c.csched.machine ~core:w.core ~write region
        ~lo:!pos ~hi:stop w.clock 0;
      (* count exactly the lines touch_range visits (first..last line of
         the chunk's byte span): the access budget and the machine's
         access counter must agree *)
      let lines =
        (Simmem.addr region (stop - 1) / line_bytes)
        - (Simmem.addr region !pos / line_bytes)
        + 1
      in
      w.accesses <- w.accesses + lines;
      pos := stop;
      if !pos < hi then Coroutine.yield ()
    done

  let read_range c region ~lo ~hi = range c ~write:false region ~lo ~hi
  let write_range c region ~lo ~hi = range c ~write:true region ~lo ~hi
  let work c ns = charge c ns
  let yield _c = Coroutine.yield ()

  let maybe_yield c =
    let w = worker c in
    if w.accesses >= max_accesses_per_quantum then Coroutine.yield ()

  (* nothing runs between the registration and the park, so the wait
     list cannot wake the task before it has parked *)
  let suspend c register =
    register c;
    Coroutine.suspend ()

  let spawn c ?worker ?at body =
    let t = c.csched in
    let worker = match worker with Some w -> w | None -> c.last_worker in
    if worker < 0 || worker >= Array.length t.workers then
      invalid_arg "Sched.spawn: worker out of range";
    (match t.task_model with
    | Coroutines _ -> ()
    | Os_threads { spawn_ns; _ } -> charge c spawn_ns);
    (* causality: a child cannot start before its spawn — without this a
       thief whose clock lags the spawner would run the child "in the
       past", which breaks per-job latency accounting in serving mode *)
    let at = match at with Some at -> at | None -> now c in
    spawn_on t ~worker ~at body

  let await c task =
    if not task.finished then begin
      task.waiters <- c :: task.waiters;
      Coroutine.suspend ()
    end
end

let charge t ~worker ns = t.workers.(worker).clock.(0) <- t.workers.(worker).clock.(0) +. ns

let sync_clocks t =
  let m = max_clock t in
  Array.iter (fun w -> w.clock.(0) <- m) t.workers;
  (* refresh the event heap: the old keys now all lag the clocks, so every
     next pop would take the stale-entry reinsert path (and apply faults
     against a frontier from before the sync) *)
  t.heap.size <- 0;
  Array.iter
    (fun w -> if (not w.parked) && not w.offlined then heap_push t.heap w)
    t.workers
