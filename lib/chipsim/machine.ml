type t = {
  topo : Topology.t;
  profile : Latency.profile;
  l3 : Cache.t array;  (* per chiplet *)
  l2 : Cache.t array;  (* per core *)
  dir : Directory.t;
  chan : Memchan.t;
  links : Memchan.t;  (* per-chiplet link to the I/O die (GMI) *)
  mem : Simmem.t;
  pmu : Pmu.t;
  pmu_counts : int array;  (* [Pmu.counters pmu], bumped by direct index *)
  mods : Modifiers.t;  (* dynamic fault state, read on every access *)
  link_mult : float array;  (* [Modifiers.link_mults mods] *)
  (* per-core / per-chiplet lookup tables: the per-access path resolves
     core -> chiplet -> socket by indexing instead of dividing *)
  core_chiplet : int array;
  core_socket : int array;
  chiplet_socket : int array;
  nchiplets : int;
  line_shift : int;
      (* log2 line_bytes: addr -> line is a shift, not an integer divide *)
  chiplet_base_ns : float array;
      (* chiplets x chiplets base transfer latency
         (of_distance . classify_chiplets), precomputed so the remote-fill
         path is one unboxed array read instead of a classify + match *)
  chiplet_rank : int array;
      (* chiplets x chiplets distance ranks
         (rank_of_distance . classify_chiplets), for the nearest-holder
         scan on the L3-miss path *)
  scratch_clk : float array;
      (* 1-slot cell backing the float-returning compat wrappers around
         the [_clk] entry points *)
  last_cost : float array;
      (* 1-slot cell: raw latency of the last {!access_clk}, for callers
         that need the cost rather than the advanced clock *)
  chan_io : float array;
      (* 2-slot io cell for {!Memchan.charge}: floats cross that module
         boundary through it instead of boxed arguments/returns *)
  mem_ns : float array;
      (* per-core accumulated memory-access latency: the "latency PMU"
         the health monitor divides by the fill-event count to get a
         clean ns/access signal, unaffected by compute time *)
  kind_access_mult : float array;
      (* per-core static memory-path multiplier from the core's kind;
         exactly 1.0 on homogeneous-big machines so the product is a
         bit-identical no-op there *)
  kind_energy_pj : float array;
      (* per-core energy charged per access, from the core's kind *)
  energy_pj : float array;  (* per-core accumulated access energy *)
  kind_compute_pw : float array;
      (* per-core compute power density in pJ per virtual ns at nominal
         DVFS: a faster kind retires more work per ns and burns
         proportionally more, so density = kind energy_pj x kind speed *)
  compute_pj : float array;
      (* per-core accumulated per-quantum compute energy — kept separate
         from [energy_pj] so the PR-8 access-energy figures stay
         bit-identical when per-quantum charging is off *)
  link_lat_mult : float array;
      (* per-chiplet static I/O-die latency multiplier from the topology's
         link table; composes with the dynamic fault multiplier *)
  mutable accesses : int;
      (* total access_clk calls ever — every one must be classified into
         exactly one PMU fill-source counter, which check_invariants
         verifies *)
  mutable xfer_bytes : int;
      (* payload bytes of cross-chiplet bulk transfers ({!transfer}),
         rounded up to whole lines; each such transfer occupies BOTH
         endpoint links, so 2 * xfer_bytes never exceeds the links'
         total bytes served — checked by check_invariants_full *)
}

let create ?(profile = Latency.default_profile) topo =
  let chiplets = Topology.num_chiplets topo in
  let cores = Topology.num_cores topo in
  let line_bytes = topo.Topology.line_bytes in
  if line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Machine.create: line_bytes must be a power of two";
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  (* the per-chiplet link Memchan runs at the fastest link's bandwidth;
     slower links are expressed as capacity factors, which is exactly how
     dynamic membw faults scale channels — identical maths, so a topology
     with all-default links matches the historical fixed 4.0 bytes/ns *)
  let link_bw ch = topo.Topology.links.(ch).Topology.bw_bytes_per_ns in
  let max_link_bw =
    let m = ref (link_bw 0) in
    for ch = 1 to chiplets - 1 do
      if link_bw ch > !m then m := link_bw ch
    done;
    !m
  in
  let links_chan =
    Memchan.create ~nodes:chiplets ~channels_per_node:1
      ~bytes_per_ns_per_channel:max_link_bw ~line_bytes ()
  in
  for ch = 0 to chiplets - 1 do
    let f = link_bw ch /. max_link_bw in
    if f <> 1.0 then Memchan.set_capacity_factor links_chan ~node:ch f
  done;
  let pmu = Pmu.create ~cores in
  let mods = Modifiers.create ~cores ~chiplets ~nodes:topo.Topology.sockets in
  {
    topo;
    profile;
    l3 =
      Array.init chiplets (fun _ ->
          Cache.create ~size_bytes:topo.Topology.l3_bytes_per_chiplet
            ~line_bytes:topo.Topology.line_bytes ());
    l2 =
      Array.init cores (fun _ ->
          Cache.create ~ways:8 ~size_bytes:topo.Topology.l2_bytes_per_core
            ~line_bytes:topo.Topology.line_bytes ());
    dir = Directory.create ~chiplets;
    chan =
      Memchan.create ~nodes:topo.Topology.sockets
        ~channels_per_node:topo.Topology.mem_channels_per_socket
        ~bytes_per_ns_per_channel:topo.Topology.mem_bw_bytes_per_ns_per_channel
        ~line_bytes:topo.Topology.line_bytes ();
    links = links_chan;
    mem = Simmem.create topo;
    pmu;
    pmu_counts = Pmu.counters pmu;
    mods;
    link_mult = Modifiers.link_mults mods;
    core_chiplet = Array.init cores (fun c -> Topology.chiplet_of_core topo c);
    core_socket = Array.init cores (fun c -> Topology.socket_of_core topo c);
    chiplet_socket =
      Array.init chiplets (fun ch -> Topology.socket_of_chiplet topo ch);
    nchiplets = chiplets;
    line_shift = log2 line_bytes 0;
    chiplet_base_ns =
      Array.init (chiplets * chiplets) (fun i ->
          Latency.of_distance profile
            (Latency.classify_chiplets topo (i / chiplets) (i mod chiplets)));
    chiplet_rank =
      Array.init (chiplets * chiplets) (fun i ->
          Latency.rank_of_distance
            (Latency.classify_chiplets topo (i / chiplets) (i mod chiplets)));
    scratch_clk = Array.make 1 0.0;
    last_cost = Array.make 1 0.0;
    chan_io = Array.make 2 0.0;
    mem_ns = Array.make cores 0.0;
    kind_access_mult =
      Array.init cores (fun c ->
          (Topology.spec_of_kind topo (Topology.kind_of_core topo c))
            .Topology.access_mult);
    kind_energy_pj =
      Array.init cores (fun c ->
          (Topology.spec_of_kind topo (Topology.kind_of_core topo c))
            .Topology.energy_pj);
    energy_pj = Array.make cores 0.0;
    kind_compute_pw =
      Array.init cores (fun c ->
          let spec =
            Topology.spec_of_kind topo (Topology.kind_of_core topo c)
          in
          spec.Topology.energy_pj *. spec.Topology.speed);
    compute_pj = Array.make cores 0.0;
    link_lat_mult =
      Array.init chiplets (fun ch -> topo.Topology.links.(ch).Topology.lat_mult);
    accesses = 0;
    xfer_bytes = 0;
  }

let topology t = t.topo
let profile t = t.profile
let pmu t = t.pmu
let mem t = t.mem
let modifiers t = t.mods

let set_l3_ways t ~chiplet ~ways =
  if chiplet < 0 || chiplet >= Array.length t.l3 then
    invalid_arg "Machine.set_l3_ways: chiplet out of range";
  (* a dropped line leaves the chiplet, so the directory must forget it
     there: a later miss elsewhere would otherwise be charged a remote
     fill from a chiplet that no longer holds the line *)
  Cache.set_effective_ways t.l3.(chiplet) ways ~on_drop:(fun line ->
      Directory.remove t.dir ~line ~chiplet)

let set_mem_capacity_factor t ~node factor =
  Memchan.set_capacity_factor t.chan ~node factor

(* the region's directory pages are placed with it, so its first touches
   on the per-access path allocate nothing *)
let alloc t ?policy ~elt_bytes ~count () =
  let r = Simmem.alloc t.mem ?policy ~elt_bytes ~count () in
  Directory.reserve t.dir ~first:(r.Simmem.base lsr t.line_shift)
    ~last:((r.Simmem.base + r.Simmem.length_bytes - 1) lsr t.line_shift);
  r

(* PMU event slots, bumped by direct index on the per-access path *)
let ev_l2_hit = Pmu.event_index Pmu.L2_hit
let ev_l3_local = Pmu.event_index Pmu.L3_local_hit
let ev_remote_chiplet = Pmu.event_index Pmu.Fill_remote_chiplet
let ev_remote_numa = Pmu.event_index Pmu.Fill_remote_numa
let ev_dram_local = Pmu.event_index Pmu.Dram_local
let ev_dram_remote = Pmu.event_index Pmu.Dram_remote
let ev_invalidation = Pmu.event_index Pmu.Coherence_invalidation

let[@inline] count t i =
  Array.unsafe_set t.pmu_counts i (Array.unsafe_get t.pmu_counts i + 1)

(* The one per-access routine.  It charges the latency directly into the
   caller's clock cell [clk.(slot)] (an unboxed float-array slot: the
   scheduler passes each worker's virtual clock) and leaves the raw cost
   in [last_cost].  Nothing float-valued crosses a function boundary on
   the L2/L3-hit paths, so they allocate nothing; the fill paths pass
   their floats to {!Memchan} through the [chan_io] cell. *)
let access_clk t ~core ~write addr clk slot =
  let line = addr lsr t.line_shift in
  t.accesses <- t.accesses + 1;
  let now_ns = clk.(slot) in
  let p = t.profile in
  let chiplet = t.core_chiplet.(core) in
  let socket = t.core_socket.(core) in
  let pc = core * Pmu.num_events in
  (* Core-private L2 filter: reads served by the L2 cost nothing beyond the
     L2 hit latency and generate no chiplet-level traffic. *)
  let l2_res = Cache.access t.l2.(core) line in
  let cost =
    if l2_res = Cache.hit && not write then begin
      count t (pc + ev_l2_hit);
      p.Latency.l2_hit_ns
    end
    else begin
      let l3_res = Cache.access t.l3.(chiplet) line in
      if l3_res = Cache.hit then begin
        count t (pc + ev_l3_local);
        p.Latency.same_chiplet_ns
      end
      else begin
        let holder =
          Directory.fill t.dir ~line ~chiplet ~evicted:l3_res
            ~ranks:t.chiplet_rank ~row:(chiplet * t.nchiplets)
        in
        if holder >= 0 then begin
          let base0 = t.chiplet_base_ns.((chiplet * t.nchiplets) + holder) in
          let same_socket = t.chiplet_socket.(holder) = socket in
          (* degraded cross-socket fabric inflates every hop between the
             sockets *)
          let base =
            if same_socket then base0 else base0 *. Modifiers.xsocket_mult t.mods
          in
          count t (pc + if same_socket then ev_remote_chiplet else ev_remote_numa);
          (* a cache-to-cache transfer occupies both chiplets' I/O-die
             links; inter-chiplet traffic therefore saturates with core
             count (paper insight 3).  A degraded link multiplies the
             latency of every transfer crossing it. *)
          let io = t.chan_io in
          io.(0) <- now_ns;
          io.(1) <-
            base
            *. Array.unsafe_get t.link_mult chiplet
            *. Array.unsafe_get t.link_lat_mult chiplet;
          Memchan.charge t.links ~node:chiplet io;
          let l1 = io.(0) in
          io.(0) <- now_ns;
          io.(1) <-
            base
            *. Array.unsafe_get t.link_mult holder
            *. Array.unsafe_get t.link_lat_mult holder;
          Memchan.charge t.links ~node:holder io;
          let l2c = io.(0) in
          if l1 >= l2c then l1 else l2c
        end
        else begin
          let home =
            Simmem.node_of_addr t.mem ~toucher_node:socket (line lsl t.line_shift)
          in
          let base =
            if home = socket then begin
              count t (pc + ev_dram_local);
              p.Latency.dram_local_ns
            end
            else begin
              count t (pc + ev_dram_remote);
              p.Latency.dram_remote_ns *. Modifiers.xsocket_mult t.mods
            end
          in
          let io = t.chan_io in
          io.(0) <- now_ns;
          io.(1) <- base;
          Memchan.charge t.chan ~node:home io;
          let node_cost = io.(0) in
          (* DRAM traffic also crosses this chiplet's I/O-die link;
             the slower of the two queues dominates *)
          io.(0) <- now_ns;
          io.(1) <-
            base
            *. Array.unsafe_get t.link_mult chiplet
            *. Array.unsafe_get t.link_lat_mult chiplet;
          Memchan.charge t.links ~node:chiplet io;
          let link_cost = io.(0) in
          if node_cost >= link_cost then node_cost else link_cost
        end
      end
    end
  in
  let total =
    if write then begin
      (* The writer becomes the exclusive holder and the copies on other
         chiplets are invalidated.  The holder set is walked as a bitmask
         up to its highest set bit: no closure, no allocation. *)
      let others = Directory.claim t.dir ~line ~chiplet in
      let extra = ref 0.0 in
      let m = ref others and holder = ref 0 in
      while !m <> 0 do
        if !m land 1 <> 0 then begin
          ignore (Cache.invalidate t.l3.(!holder) line : bool);
          count t (pc + ev_invalidation);
          extra := !extra +. p.Latency.coherence_inval_ns
        end;
        m := !m lsr 1;
        incr holder
      done;
      cost +. !extra
    end
    else cost
  in
  (* accelerator/little tiles see the shared memory path through a
     less aggressive core frontend: one static multiplier per kind,
     exactly 1.0 for big cores *)
  let total = total *. Array.unsafe_get t.kind_access_mult core in
  Array.unsafe_set t.energy_pj core
    (Array.unsafe_get t.energy_pj core +. Array.unsafe_get t.kind_energy_pj core);
  t.mem_ns.(core) <- t.mem_ns.(core) +. total;
  Array.unsafe_set t.last_cost 0 total;
  clk.(slot) <- now_ns +. total

(* float-returning compat wrapper over the scratch clock cell *)
let access t ~core ~now_ns ~write addr =
  let c = t.scratch_clk in
  c.(0) <- now_ns;
  access_clk t ~core ~write addr c 0;
  t.last_cost.(0)

let touch t ~core ~now_ns ~write region i =
  access t ~core ~now_ns ~write (Simmem.addr region i)

(* Hardware prefetchers hide most of the latency of a sequential run:
   lines after the first are charged a fraction of their latency, while
   the bandwidth they consume is still fully accounted by the channel and
   link models.  This is what lets one streaming thread pull an order of
   magnitude more bandwidth than a pointer-chasing one. *)
let prefetch_factor = 0.35

(* io-cell variant: [clk.(slot)] holds the virtual time on entry and the
   span's total cost on return.  Each line is charged at [now + total-so-
   far], exactly the evaluation order of a caller summing per-line costs
   itself, so the clock's float rounding is independent of how a range is
   chunked. *)
let touch_range_io t ~core ~write region ~lo ~hi clk slot =
  let first = Simmem.addr region lo lsr t.line_shift in
  let last = Simmem.addr region (hi - 1) lsr t.line_shift in
  let now0 = clk.(slot) in
  let total = ref 0.0 in
  for line = first to last do
    clk.(slot) <- now0 +. !total;
    access_clk t ~core ~write (line lsl t.line_shift) clk slot;
    let cost = t.last_cost.(0) in
    let cost = if line = first then cost else cost *. prefetch_factor in
    total := !total +. cost
  done;
  clk.(slot) <- !total

let touch_range_clk t ~core ~write region ~lo ~hi clk slot =
  if lo < hi then begin
    let now0 = clk.(slot) in
    touch_range_io t ~core ~write region ~lo ~hi clk slot;
    clk.(slot) <- now0 +. clk.(slot)
  end

let touch_range t ~core ~now_ns ~write region ~lo ~hi =
  if lo >= hi then 0.0
  else begin
    let c = t.scratch_clk in
    c.(0) <- now_ns;
    touch_range_io t ~core ~write region ~lo ~hi c 0;
    c.(0)
  end

(* Bulk chiplet-to-chiplet transfer — the task-graph edge path.  Bytes are
   rounded up to whole lines so the link channels keep their whole-line
   accounting.  A transfer within one chiplet stays inside the local L3
   and costs one same-chiplet hop regardless of size; a cross-chiplet
   transfer pays the distance-classified base latency (inflated by a
   degraded cross-socket fabric) plus serialization and contention on
   BOTH endpoints' I/O-die links, the slower of the two dominating —
   the same composition as the cache-to-cache fill path above. *)
let transfer t ~src_chiplet ~dst_chiplet ~now_ns ~bytes =
  if src_chiplet < 0 || src_chiplet >= t.nchiplets then
    invalid_arg "Machine.transfer: src chiplet out of range";
  if dst_chiplet < 0 || dst_chiplet >= t.nchiplets then
    invalid_arg "Machine.transfer: dst chiplet out of range";
  if bytes < 0 then invalid_arg "Machine.transfer: negative byte count";
  if bytes = 0 then 0.0
  else if src_chiplet = dst_chiplet then t.profile.Latency.same_chiplet_ns
  else begin
    let line_bytes = t.topo.Topology.line_bytes in
    let lines = (bytes + line_bytes - 1) / line_bytes in
    t.xfer_bytes <- t.xfer_bytes + (lines * line_bytes);
    let base0 = t.chiplet_base_ns.((src_chiplet * t.nchiplets) + dst_chiplet) in
    let base =
      if t.chiplet_socket.(src_chiplet) = t.chiplet_socket.(dst_chiplet) then
        base0
      else base0 *. Modifiers.xsocket_mult t.mods
    in
    let leg chiplet =
      Memchan.charge_lines t.links ~node:chiplet ~now_ns
        ~base_ns:
          (base
          *. Array.unsafe_get t.link_mult chiplet
          *. t.link_lat_mult.(chiplet))
        ~lines
    in
    Float.max (leg src_chiplet) (leg dst_chiplet)
  end

let transferred_bytes t = t.xfer_bytes

let core_to_core_ns t a b = Latency.core_to_core_ns ~profile:t.profile t.topo a b
let dram_load_ratio t ~node ~now_ns = Memchan.load_ratio t.chan ~node ~now_ns
let dram_bytes_served t ~node = Memchan.bytes_served t.chan ~node

let mem_ns_cells t = t.mem_ns
let energy_pj t ~core = t.energy_pj.(core)

(* Meter sums are left-to-right loops over local accumulators: the order,
   so every bit, of [Array.fold_left ( +. )] without a box per step. *)
let sum_pj a =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do acc := !acc +. a.(i) done;
  !acc

(* memory-access energy only — the historical PR-8 meter; compute energy
   deliberately lands in [compute_pj] so this total is bit-identical
   whether or not per-quantum charging is enabled *)
let total_energy_pj t = sum_pj t.energy_pj

(* Per-quantum compute energy.  [dt_ns] is virtual time retired by the
   core during the quantum; the DVFS factor enters quadratically, so with
   power = energy/time the core's power scales ~cubically with frequency —
   which is why shedding frequency is an effective power-cap actuator.
   Energy accounting never touches virtual time. *)
let charge_quantum t ~core ~dt_ns ~dvfs =
  Array.unsafe_set t.compute_pj core
    (Array.unsafe_get t.compute_pj core
    +. (dt_ns *. Array.unsafe_get t.kind_compute_pw core *. dvfs *. dvfs))

let total_compute_energy_pj t = sum_pj t.compute_pj

(* [total_energy_pj t +. total_compute_energy_pj t] in one pass *)
let combined_energy_pj t =
  let e = ref 0.0 and c = ref 0.0 in
  for core = 0 to Array.length t.energy_pj - 1 do
    e := !e +. t.energy_pj.(core);
    c := !c +. t.compute_pj.(core)
  done;
  !e +. !c

(* chiplet [ch]'s meters summed into [dst.(i)]: its cores are contiguous,
   so in the order of a filtered scan over every core *)
let chiplet_sum t ch dst i =
  let cpc = t.topo.Topology.cores_per_chiplet in
  dst.(i) <- 0.0;
  for core = ch * cpc to ((ch + 1) * cpc) - 1 do
    dst.(i) <- dst.(i) +. t.energy_pj.(core) +. t.compute_pj.(core)
  done

let chiplet_energies t dst ~pos =
  for ch = 0 to t.nchiplets - 1 do chiplet_sum t ch dst (pos + ch) done

let accesses t = t.accesses

(* Cheap structural checks, suitable for calling every few quanta from the
   scheduler when checking is on: O(cores) PMU sums + O(chiplets) bounds. *)
let check_invariants t =
  let fills =
    Pmu.total t.pmu Pmu.L2_hit
    + Pmu.total t.pmu Pmu.L3_local_hit
    + Pmu.total t.pmu Pmu.Fill_remote_chiplet
    + Pmu.total t.pmu Pmu.Fill_remote_numa
    + Pmu.total t.pmu Pmu.Dram_local
    + Pmu.total t.pmu Pmu.Dram_remote
  in
  if fills <> t.accesses then
    Invariant.fail
      "machine: fill-class counts sum to %d but %d accesses were simulated"
      fills t.accesses;
  Array.iteri
    (fun chiplet l3 ->
      let eff = Cache.effective_ways l3 in
      if eff < 1 || eff > Cache.ways l3 then
        Invariant.fail
          "machine: chiplet %d L3 has %d effective ways outside [1, %d]"
          chiplet eff (Cache.ways l3))
    t.l3;
  Array.iteri
    (fun core ns ->
      if not (Float.is_finite ns) || ns < 0.0 then
        Invariant.fail "machine: core %d memory-latency meter is %g" core ns)
    t.mem_ns;
  Array.iteri
    (fun core e ->
      if not (Float.is_finite e) || e < 0.0 then
        Invariant.fail "machine: core %d energy meter is %g" core e)
    t.energy_pj;
  Array.iteri
    (fun core e ->
      if not (Float.is_finite e) || e < 0.0 then
        Invariant.fail "machine: core %d compute-energy meter is %g" core e)
    t.compute_pj

(* Adds the O(nodes * slots) memory-channel ring scans — end-of-run /
   fuzzer verification. *)
let check_invariants_full t =
  check_invariants t;
  Memchan.check_invariants t.chan;
  Memchan.check_invariants t.links;
  (* edge-byte conservation: every cross-chiplet transfer occupied both
     endpoint links, and the links also carry cache-fill traffic on top *)
  if t.xfer_bytes < 0 then
    Invariant.fail "machine: negative transfer ledger %d" t.xfer_bytes;
  if t.xfer_bytes mod t.topo.Topology.line_bytes <> 0 then
    Invariant.fail
      "machine: transfer ledger %d not a multiple of the %d-byte line"
      t.xfer_bytes t.topo.Topology.line_bytes;
  let link_total = ref 0 in
  for ch = 0 to t.nchiplets - 1 do
    link_total := !link_total + Memchan.bytes_served t.links ~node:ch
  done;
  if 2 * t.xfer_bytes > !link_total then
    Invariant.fail
      "machine: transfer ledger %d bytes (x2 link legs) exceeds the %d bytes \
       the links ever served"
      t.xfer_bytes !link_total;
  (* energy conservation: the per-chiplet view is a re-partition of the
     per-core meters, so both sums must agree (to float re-association) *)
  let chiplet_pj = Array.make t.nchiplets 0.0 in
  chiplet_energies t chiplet_pj ~pos:0;
  let per_chiplet = ref 0.0 in
  Array.iter (fun e -> per_chiplet := !per_chiplet +. e) chiplet_pj;
  let total = combined_energy_pj t in
  if Float.abs (!per_chiplet -. total) > 1e-6 *. Float.max 1.0 total then
    Invariant.fail
      "machine: per-chiplet energy sums to %g pJ but the machine total is %g pJ"
      !per_chiplet total;
  (* directory agreement: a chiplet's holder bit is set exactly for the
     lines its L3 holds *)
  Array.iteri
    (fun chiplet l3 ->
      Cache.iter l3 (fun line ->
          if not (Directory.holds t.dir ~line ~chiplet) then
            Invariant.fail
              "machine: line %d is in chiplet %d's L3 but the directory has \
               no holder bit for it"
              line chiplet))
    t.l3;
  Directory.iter t.dir (fun line mask ->
      for chiplet = 0 to t.nchiplets - 1 do
        if mask land (1 lsl chiplet) <> 0 && not (Cache.probe t.l3.(chiplet) line)
        then
          Invariant.fail
            "machine: the directory lists chiplet %d as a holder of line %d \
             but its L3 does not hold it"
            chiplet line
      done)

let reset t =
  Array.iter Cache.clear t.l3;
  Array.iter Cache.clear t.l2;
  Directory.clear t.dir;
  Memchan.reset t.chan;
  Memchan.reset t.links;
  Simmem.reset t.mem;
  Pmu.reset t.pmu;
  Array.fill t.mem_ns 0 (Array.length t.mem_ns) 0.0;
  Array.fill t.energy_pj 0 (Array.length t.energy_pj) 0.0;
  Array.fill t.compute_pj 0 (Array.length t.compute_pj) 0.0;
  t.accesses <- 0;
  t.xfer_bytes <- 0
