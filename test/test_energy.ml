(* Energy accounting and the power-cap controller: per-kind golden
   values, DVFS quadratics, separation of the compute meter from the
   memory meter (the PR-8 baseline guarantee), windowed power estimates,
   shed/release hysteresis, and end-to-end wiring through the CHARM
   runtime. *)

module Topology = Chipsim.Topology
module Machine = Chipsim.Machine
module Modifiers = Chipsim.Modifiers
module Power_cap = Charm.Power_cap
module Server = Serving.Server
module Sys_ = Harness.Systems

(* 1 socket x 4 chiplets x 2 cores, mirroring examples/topologies/
   tiny-hetero.topo: chiplet 0-1 Big, 2 Little, 3 Accel *)
let hetero () =
  Machine.create
    (Topology.v
       ~chiplet_kinds:[| Topology.Big; Topology.Big; Topology.Little; Topology.Accel |]
       ~sockets:1 ~chiplets_per_socket:4 ~cores_per_chiplet:2 ())

(* one access at virtual time 0 *)
let access m ~core ~write r i =
  Machine.access_clk m ~core ~write (Chipsim.Simmem.addr r i) [| 0.0 |] 0

(* compute power densities in pJ/ns at nominal DVFS: spec.energy_pj x
   spec.speed (Big 0.87 x 1.0, Little 0.30 x 0.6, Accel 0.22 x 2.5) *)
let big_pw = 0.87
let little_pw = 0.18
let accel_pw = 0.55

(* -- per-quantum compute energy ---------------------------------------- *)

(* with no access made, a chiplet's meter is its cores' compute energy *)
let chiplet_pj m =
  let dst = Array.make 4 nan in
  Machine.chiplet_energies m dst ~pos:0;
  dst

let test_charge_golden () =
  let m = hetero () in
  Machine.charge_quantum m ~core:0 ~dt_ns:100.0 ~dvfs:1.0;
  Machine.charge_quantum m ~core:4 ~dt_ns:100.0 ~dvfs:1.0;
  Machine.charge_quantum m ~core:6 ~dt_ns:100.0 ~dvfs:1.0;
  let pj = chiplet_pj m in
  Alcotest.(check (float 1e-9)) "Big: 100 ns at nominal = 87 pJ"
    (100.0 *. big_pw) pj.(0);
  Alcotest.(check (float 1e-9)) "Little: 100 ns = 18 pJ" (100.0 *. little_pw) pj.(2);
  Alcotest.(check (float 1e-9)) "Accel: 100 ns = 55 pJ" (100.0 *. accel_pw) pj.(3);
  Alcotest.(check (float 1e-9)) "uncharged cores stay 0" 0.0 pj.(1);
  Alcotest.(check (float 1e-9)) "total = sum of cores"
    (100.0 *. (big_pw +. little_pw +. accel_pw))
    (Machine.total_compute_energy_pj m)

let test_dvfs_quadratic () =
  let m = hetero () in
  Machine.charge_quantum m ~core:0 ~dt_ns:100.0 ~dvfs:0.5;
  Alcotest.(check (float 1e-9)) "half frequency = quarter energy"
    (100.0 *. big_pw *. 0.25)
    (Machine.total_compute_energy_pj m);
  Machine.charge_quantum m ~core:0 ~dt_ns:100.0 ~dvfs:0.5;
  Alcotest.(check (float 1e-9)) "charges accumulate"
    (2.0 *. 100.0 *. big_pw *. 0.25)
    (Machine.total_compute_energy_pj m);
  let m2 = hetero () in
  Machine.charge_quantum m2 ~core:0 ~dt_ns:50.0 ~dvfs:2.0;
  Alcotest.(check (float 1e-9)) "overdrive scales by dvfs^2"
    (50.0 *. big_pw *. 4.0)
    (Machine.total_compute_energy_pj m2)

let test_compute_meter_separate () =
  (* the PR-8 compatibility contract: charge_quantum must never move
     total_energy_pj (memory-only), and memory accesses must never move
     the compute meter, so every pre-energy baseline stays bit-identical
     with --energy off *)
  let m = hetero () in
  let r = Machine.alloc m ~elt_bytes:8 ~count:256 () in
  Machine.touch_range_clk m ~core:0 ~write:false r ~lo:0 ~hi:256 [| 0.0 |] 0;
  let mem_before = Machine.total_energy_pj m in
  Alcotest.(check bool) "accesses metered memory energy" true (mem_before > 0.0);
  Alcotest.(check (float 0.0)) "accesses leave the compute meter at 0" 0.0
    (Machine.total_compute_energy_pj m);
  Machine.charge_quantum m ~core:0 ~dt_ns:1000.0 ~dvfs:1.0;
  Alcotest.(check (float 0.0)) "charge_quantum leaves the memory meter alone"
    mem_before (Machine.total_energy_pj m);
  Alcotest.(check (float 1e-9)) "combined = memory + compute"
    (mem_before +. (1000.0 *. big_pw))
    (Machine.combined_energy_pj m)

let test_chiplet_sums () =
  let m = hetero () in
  let r = Machine.alloc m ~elt_bytes:8 ~count:512 () in
  for core = 0 to 7 do
    access m ~core ~write:(core mod 2 = 0) r core;
    Machine.charge_quantum m ~core ~dt_ns:(float_of_int ((core + 1) * 10)) ~dvfs:0.9
  done;
  Alcotest.(check (float 1e-6)) "chiplet meters sum to the combined meter"
    (Machine.combined_energy_pj m)
    (Array.fold_left ( +. ) 0.0 (chiplet_pj m));
  (* the executable energy-conservation invariant over the same state *)
  Machine.check_invariants_full m

(* -- meter sums against the folds they replaced ------------------------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits name expected got =
  if not (same_bits expected got) then
    Alcotest.failf "%s: %h (%.17g), reference %h (%.17g)" name got got expected expected

(* The meters on a 128-core Milan after random access and compute
   charges of widely spread magnitudes, summed by the machine's loops and
   by the formulas they replaced: [Array.fold_left ( +. )] over the
   per-core meters, and a filtered [Array.iteri] over every core for a
   chiplet.  The loops keep the summation order, so every bit agrees.
   The per-core meters are restated here: each access adds its core
   kind's [energy_pj], and each compute charge is the machine's
   [dt x (energy_pj x speed) x dvfs^2] in its order of evaluation. *)
let test_meter_sums_match_folds () =
  let topo = Chipsim.Presets.amd_milan () in
  let m = Machine.create topo in
  let cores = Topology.num_cores topo and chiplets = Topology.num_chiplets topo in
  let core_chiplet = Array.init cores (Topology.chiplet_of_core topo) in
  let r = Machine.alloc m ~elt_bytes:8 ~count:4096 () in
  let rng = Random.State.make [| 17 |] in
  let dst = Array.make (chiplets + 3) nan in
  let spec core = Topology.spec_of_kind topo (Topology.kind_of_core topo core) in
  let pw = Array.init cores (fun core -> let s = spec core in s.Topology.energy_pj *. s.Topology.speed) in
  let e = Array.make cores 0.0 and c = Array.make cores 0.0 in
  for round = 1 to 25 do
    for _ = 1 to 200 do
      let core = Random.State.int rng cores in
      if Random.State.bool rng then begin
        access m ~core ~write:(Random.State.bool rng) r (Random.State.int rng 4096);
        e.(core) <- e.(core) +. (spec core).Topology.energy_pj
      end
      else begin
        let dvfs = 0.3 +. Random.State.float rng 0.7 in
        let dt_ns = 10.0 ** Random.State.float rng 9.0 /. 1000.0 in
        Machine.charge_quantum m ~core ~dt_ns ~dvfs;
        c.(core) <- c.(core) +. (dt_ns *. pw.(core) *. dvfs *. dvfs)
      end
    done;
    let name what = Printf.sprintf "round %d: %s" round what in
    let fold_e = Array.fold_left ( +. ) 0.0 e and fold_c = Array.fold_left ( +. ) 0.0 c in
    check_bits (name "total_energy_pj") fold_e (Machine.total_energy_pj m);
    check_bits (name "total_compute_energy_pj") fold_c (Machine.total_compute_energy_pj m);
    check_bits (name "combined_energy_pj") (fold_e +. fold_c) (Machine.combined_energy_pj m);
    Machine.chiplet_energies m dst ~pos:3;
    for chiplet = 0 to chiplets - 1 do
      let acc = ref 0.0 in
      Array.iteri
        (fun core ch -> if ch = chiplet then acc := !acc +. e.(core) +. c.(core))
        core_chiplet;
      check_bits (name (Printf.sprintf "chiplet_energies %d" chiplet)) !acc
        dst.(3 + chiplet)
    done
  done

(* -- the power-cap ring against the queue it replaced ------------------- *)

(* The sliding window as it was before the ring: a queue of (time, energy)
   samples per chiplet, each estimate read from the queue's oldest entry
   and (by a fold) its newest.  The control law is restated beside it. *)
module Queue_model = struct
  type sample = { t_ns : float; e_pj : float }

  type t = {
    machine : Machine.t;
    cap_mw : float;
    window_ns : float;
    sample_ns : float;
    samples : sample Queue.t array;
    level : float array;
    mutable now_ns : float;
    mutable last_sample_ns : float;
    mutable max_power_mw : float;
    mutable sheds : int;
    mutable releases : int;
    mutable evictions : int;
  }

  let create ~window_ns ~sample_ns machine ~cap_mw =
    let chiplets = Topology.num_chiplets (Machine.topology machine) in
    {
      machine;
      cap_mw;
      window_ns = Float.max window_ns (2.0 *. sample_ns);
      sample_ns;
      samples = Array.init chiplets (fun _ -> Queue.create ());
      level = Array.make chiplets 1.0;
      now_ns = 0.0;
      last_sample_ns = neg_infinity;
      max_power_mw = 0.0;
      sheds = 0;
      releases = 0;
      evictions = 0;
    }

  let chiplet_power_mw t ~chiplet =
    let q = t.samples.(chiplet) in
    if Queue.length q < 2 then 0.0
    else begin
      let oldest = Queue.peek q in
      let newest = Queue.fold (fun _ s -> s) oldest q in
      let dt = newest.t_ns -. oldest.t_ns in
      if dt <= 0.0 then 0.0 else (newest.e_pj -. oldest.e_pj) /. dt
    end

  let power_mw t =
    let acc = ref 0.0 in
    for ch = 0 to Array.length t.level - 1 do
      acc := !acc +. chiplet_power_mw t ~chiplet:ch
    done;
    !acc

  let hottest_sheddable t =
    let best = ref (-1) and best_p = ref neg_infinity in
    Array.iteri
      (fun ch l ->
        let p = chiplet_power_mw t ~chiplet:ch in
        if l > 0.3 && p > !best_p then begin
          best_p := p;
          best := ch
        end)
      t.level;
    !best

  let most_throttled t =
    let best = ref (-1) and best_l = ref 1.0 in
    Array.iteri
      (fun ch l ->
        if l < !best_l then begin
          best_l := l;
          best := ch
        end)
      t.level;
    !best

  let tick t ~now_ns =
    if now_ns > t.now_ns then t.now_ns <- now_ns;
    if t.now_ns -. t.last_sample_ns < t.sample_ns then Power_cap.Idle
    else begin
      t.last_sample_ns <- t.now_ns;
      let e_pj = Array.make (Array.length t.samples) 0.0 in
      Machine.chiplet_energies t.machine e_pj ~pos:0;
      Array.iteri
        (fun ch q ->
          Queue.push { t_ns = t.now_ns; e_pj = e_pj.(ch) } q;
          while Queue.length q > 2 && (Queue.peek q).t_ns < t.now_ns -. t.window_ns do
            ignore (Queue.pop q : sample);
            t.evictions <- t.evictions + 1
          done)
        t.samples;
      let p = power_mw t in
      if p > t.max_power_mw then t.max_power_mw <- p;
      if p > t.cap_mw then
        match hottest_sheddable t with
        | -1 -> Power_cap.Idle
        | ch ->
            t.level.(ch) <- Float.max 0.3 (t.level.(ch) *. 0.75);
            t.sheds <- t.sheds + 1;
            Power_cap.Shed ch
      else if p < 0.8 *. t.cap_mw then
        match most_throttled t with
        | -1 -> Power_cap.Idle
        | ch ->
            t.level.(ch) <- Float.min 1.0 (t.level.(ch) /. 0.75);
            t.releases <- t.releases + 1;
            Power_cap.Release ch
      else Power_cap.Idle
    end
end

(* A random tick sequence (stale clocks, sub-cadence ticks, jumps past the
   whole window, load phases above the cap and far below it) drives the
   controller and the queue model over one machine; the test charges the
   meters itself at nominal DVFS, so the controller's actuation does not
   feed back.  Every tick's action, estimate, peak, counters and levels
   agree exactly. *)
let test_ring_matches_queue_model () =
  List.iter
    (fun (label, machine, window_ns, sample_ns, cap_mw) ->
      let m = machine () in
      let cores = Topology.num_cores (Machine.topology m) in
      let chiplets = Topology.num_chiplets (Machine.topology m) in
      let pc = Power_cap.create ~window_ns ~sample_ns m ~cap_mw in
      let model = Queue_model.create ~window_ns ~sample_ns m ~cap_mw in
      let rng = Random.State.make [| 29 |] in
      let now = ref 0.0 and load = ref 0.0 and releases = ref 0 in
      for i = 1 to 3000 do
        if i mod 150 = 1 then
          load := [| 0.0; 0.3; 0.9; 1.5; 4.0 |].(Random.State.int rng 5) *. cap_mw;
        (* whole nanoseconds, so a sample can sit exactly on the window's
           edge *)
        let dt =
          Float.round
            (match Random.State.int rng 20 with
            | 0 -> -.Random.State.float rng (2.0 *. sample_ns)
            | 1 -> Random.State.float rng (4.0 *. window_ns)
            | 2 -> sample_ns
            | _ -> Random.State.float rng (1.5 *. sample_ns))
        in
        if dt > 0.0 && !load > 0.0 then
          (* the load's energy over [dt], spread over a few random cores *)
          for _ = 1 to 3 do
            Machine.charge_quantum m ~core:(Random.State.int rng cores)
              ~dt_ns:(dt *. !load *. Random.State.float rng 1.0)
              ~dvfs:1.0
          done;
        now := !now +. dt;
        let at = Printf.sprintf "%s tick %d" label i in
        let a = Power_cap.tick pc ~now_ns:!now and b = Queue_model.tick model ~now_ns:!now in
        if a <> b then Alcotest.failf "%s: actions differ" at;
        (match a with Power_cap.Release _ -> incr releases | Power_cap.Idle | Power_cap.Shed _ -> ());
        check_bits (at ^ " power_mw") (Queue_model.power_mw model) (Power_cap.power_mw pc);
        check_bits (at ^ " max_power_mw") model.max_power_mw (Power_cap.max_power_mw pc);
        Alcotest.(check int) (at ^ " sheds") model.sheds (Power_cap.sheds pc);
        Alcotest.(check int) (at ^ " releases") model.releases !releases;
        for chiplet = 0 to chiplets - 1 do
          check_bits (at ^ " chiplet power")
            (Queue_model.chiplet_power_mw model ~chiplet)
            (Power_cap.chiplet_power_mw pc ~chiplet);
          check_bits (at ^ " level") model.level.(chiplet) (Power_cap.level pc ~chiplet)
        done
      done;
      (* the sequence reached every branch the comparison is meant to cover *)
      Alcotest.(check bool) (label ^ ": shed") true (Power_cap.sheds pc > 0);
      Alcotest.(check bool) (label ^ ": released") true (!releases > 0);
      Alcotest.(check bool) (label ^ ": evicted") true (model.evictions > 0);
      Power_cap.verify pc)
    [
      ("hetero", hetero, 200.0, 100.0, 1.0);
      ("hetero, window clamped", hetero, 50.0, 100.0, 1.0);
      ("milan", (fun () -> Machine.create (Chipsim.Presets.amd_milan ())), 500_000.0, 50_000.0, 20.0);
      ("milan, uneven window", (fun () -> Machine.create (Chipsim.Presets.amd_milan ())), 330.0, 70.0, 20.0);
    ]

(* -- gating through the scheduler -------------------------------------- *)

let small_serve_cfg seed =
  let base = Server.default_config ~seed in
  {
    base with
    Server.tenants =
      List.map
        (fun t -> { t with Server.jobs = 8 })
        base.Server.tenants;
  }

let run_serve ~energy seed =
  let inst = Sys_.make ~cache_scale:16 Sys_.Charm Sys_.Amd_milan_1s ~n_workers:8 () in
  let sched = inst.Sys_.env.Workloads.Exec_env.sched in
  Engine.Sched.set_energy sched energy;
  let r = Server.run inst (small_serve_cfg seed) in
  (r, Machine.total_compute_energy_pj inst.Sys_.machine)

let test_energy_off_is_free () =
  (* with energy off (the default) the compute meter must stay at zero
     and the schedule must be exactly the one an energy-on run produces:
     metering is observation, never perturbation *)
  let r_off, compute_off = run_serve ~energy:false 11 in
  let r_on, compute_on = run_serve ~energy:true 11 in
  Alcotest.(check (float 0.0)) "energy off: compute meter untouched" 0.0
    compute_off;
  Alcotest.(check bool) "energy on: compute meter accrues" true
    (compute_on > 0.0);
  Alcotest.(check (float 0.0)) "identical makespan" r_off.Server.makespan_ns
    r_on.Server.makespan_ns;
  List.iter2
    (fun a b ->
      Alcotest.(check int) "identical completions" a.Server.completed
        b.Server.completed;
      Alcotest.(check (float 0.0)) "identical latency mass"
        (Serving.Histogram.sum a.Server.latency)
        (Serving.Histogram.sum b.Server.latency))
    r_off.Server.tenant_reports r_on.Server.tenant_reports

let test_energy_totals_deterministic () =
  let _, a = run_serve ~energy:true 21 in
  let _, b = run_serve ~energy:true 21 in
  Alcotest.(check (float 0.0)) "same seed, bit-identical energy total" a b

(* -- power-cap controller ---------------------------------------------- *)

let invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: accepted a nonsensical argument" name

let test_cap_validation () =
  let m = hetero () in
  invalid "zero cap" (fun () -> Power_cap.create m ~cap_mw:0.0);
  invalid "negative cap" (fun () -> Power_cap.create m ~cap_mw:(-1.0));
  invalid "nan cap" (fun () -> Power_cap.create m ~cap_mw:Float.nan);
  invalid "zero window" (fun () ->
      Power_cap.create ~window_ns:0.0 m ~cap_mw:1.0);
  invalid "zero cadence" (fun () ->
      Power_cap.create ~sample_ns:0.0 m ~cap_mw:1.0);
  invalid "config negative weight" (fun () ->
      Charm.Config.validate
        { Charm.Config.default with energy_weight = -1.0 }
        (Machine.topology m));
  invalid "config nan cap" (fun () ->
      Charm.Config.validate
        { Charm.Config.default with power_cap_mw = Float.nan }
        (Machine.topology m))

let test_power_estimate_golden () =
  let m = hetero () in
  (* huge cap: pure estimation, no actuation *)
  let pc = Power_cap.create ~window_ns:1000.0 ~sample_ns:100.0 m ~cap_mw:1e9 in
  Alcotest.(check (float 0.0)) "no samples yet: 0 mW" 0.0 (Power_cap.power_mw pc);
  ignore (Power_cap.tick pc ~now_ns:0.0);
  Alcotest.(check (float 0.0)) "one sample: still 0 mW" 0.0
    (Power_cap.power_mw pc);
  Machine.charge_quantum m ~core:0 ~dt_ns:100.0 ~dvfs:1.0;
  ignore (Power_cap.tick pc ~now_ns:100.0);
  (* 87 pJ over 100 ns = 0.87 pJ/ns = 0.87 mW, all on chiplet 0 *)
  Alcotest.(check (float 1e-9)) "chiplet 0 draws 0.87 mW" 0.87
    (Power_cap.chiplet_power_mw pc ~chiplet:0);
  Alcotest.(check (float 1e-9)) "idle chiplet draws 0 mW" 0.0
    (Power_cap.chiplet_power_mw pc ~chiplet:1);
  Alcotest.(check (float 1e-9)) "machine power sums the chiplets" 0.87
    (Power_cap.power_mw pc);
  Alcotest.(check (float 1e-9)) "peak recorded" 0.87
    (Power_cap.max_power_mw pc);
  (* sub-cadence tick: no new sample, estimate unchanged *)
  ignore (Power_cap.tick pc ~now_ns:150.0);
  Alcotest.(check (float 1e-9)) "sub-cadence tick holds the estimate" 0.87
    (Power_cap.power_mw pc);
  Power_cap.verify pc

let test_cap_sheds_hottest () =
  let m = hetero () in
  let pc = Power_cap.create ~window_ns:200.0 ~sample_ns:100.0 m ~cap_mw:1.0 in
  ignore (Power_cap.tick pc ~now_ns:0.0);
  (* chiplet 0 draws 1.5 mW, chiplet 2 a modest 0.2 mW *)
  Machine.charge_quantum m ~core:0 ~dt_ns:(150.0 /. big_pw) ~dvfs:1.0;
  Machine.charge_quantum m ~core:4 ~dt_ns:(20.0 /. little_pw) ~dvfs:1.0;
  (match Power_cap.tick pc ~now_ns:100.0 with
  | Power_cap.Shed 0 -> ()
  | Power_cap.Shed ch -> Alcotest.failf "shed chiplet %d, not the hottest" ch
  | Power_cap.Idle | Power_cap.Release _ ->
      Alcotest.fail "over-cap tick did not shed");
  Alcotest.(check int) "one shed recorded" 1 (Power_cap.sheds pc);
  Alcotest.(check (float 1e-9)) "level dropped one step" 0.75
    (Power_cap.level pc ~chiplet:0);
  Alcotest.(check bool) "chiplet reported throttled" true
    (Power_cap.throttled pc ~chiplet:0);
  (* the actuator is the DVFS knob the fault layer owns: both cores of
     the shed chiplet slow down, neighbours keep nominal speed *)
  let mods = Machine.modifiers m in
  Alcotest.(check (float 1e-9)) "core 0 throttled" 0.75
    (Modifiers.core_speeds mods).(0);
  Alcotest.(check (float 1e-9)) "core 1 throttled" 0.75
    (Modifiers.core_speeds mods).(1);
  Alcotest.(check (float 1e-9)) "core 2 untouched" 1.0
    (Modifiers.core_speeds mods).(2);
  Power_cap.verify pc

let test_cap_hysteresis_no_flapping () =
  let m = hetero () in
  let pc = Power_cap.create ~window_ns:200.0 ~sample_ns:100.0 m ~cap_mw:1.0 in
  let now = ref 0.0 in
  let step rate_mw =
    (* inject [rate_mw] worth of energy on chiplet 0 over one cadence;
       manual charges keep the plant under test control regardless of
       the controller's own DVFS actuation *)
    Machine.charge_quantum m ~core:0 ~dt_ns:(rate_mw *. 100.0 /. big_pw)
      ~dvfs:1.0;
    now := !now +. 100.0;
    Power_cap.tick pc ~now_ns:!now
  in
  ignore (Power_cap.tick pc ~now_ns:0.0);
  (* drive power over the cap until the controller reacts *)
  let guard = ref 0 in
  while Power_cap.sheds pc = 0 && !guard < 10 do
    ignore (step 1.5);
    incr guard
  done;
  Alcotest.(check bool) "over-cap load triggers a shed" true
    (Power_cap.sheds pc > 0);
  (* settle into the dead band (80%..100% of cap) and let the sliding
     window flush the over-cap transient *)
  for _ = 1 to 5 do
    ignore (step 0.9)
  done;
  let sheds0 = Power_cap.sheds pc in
  (* hysteresis: a steady dead-band load must hold the actuator still: no
     shed and no release *)
  for _ = 1 to 10 do
    match step 0.9 with
    | Power_cap.Idle -> ()
    | Power_cap.Shed _ | Power_cap.Release _ ->
        Alcotest.fail "actuator flapped inside the dead band"
  done;
  Alcotest.(check int) "no sheds inside the dead band" sheds0
    (Power_cap.sheds pc);
  (* quiesce: power falls under 80% of cap, levels release back to 1 *)
  let guard = ref 0 and released = ref false in
  while Power_cap.throttled pc ~chiplet:0 && !guard < 20 do
    (match step 0.0 with Power_cap.Release _ -> released := true | Power_cap.Idle | Power_cap.Shed _ -> ());
    incr guard
  done;
  Alcotest.(check bool) "released after sustained low power" true !released;
  Alcotest.(check (float 1e-9)) "level restored to nominal" 1.0
    (Power_cap.level pc ~chiplet:0);
  Alcotest.(check (float 1e-9)) "cores back to full speed" 1.0
    (Modifiers.core_speeds (Machine.modifiers m)).(0);
  Power_cap.verify pc

let test_cap_floor () =
  let m = hetero () in
  let pc = Power_cap.create ~window_ns:200.0 ~sample_ns:100.0 m ~cap_mw:0.01 in
  let now = ref 0.0 in
  (* hopeless overload: every chiplet pinned far over a tiny cap *)
  for _ = 1 to 30 do
    for chiplet = 0 to 3 do
      Machine.charge_quantum m ~core:(chiplet * 2) ~dt_ns:1000.0 ~dvfs:1.0
    done;
    now := !now +. 100.0;
    ignore (Power_cap.tick pc ~now_ns:!now)
  done;
  for chiplet = 0 to 3 do
    let l = Power_cap.level pc ~chiplet in
    Alcotest.(check bool)
      (Printf.sprintf "chiplet %d level %g respects the floor" chiplet l)
      true
      (l >= 0.3 -. 1e-9 && l < 1.0)
  done;
  (* every chiplet at the floor: over-cap ticks with no headroom are not
     control-law violations *)
  Power_cap.verify pc

let test_cap_nonmonotonic_ticks () =
  let m = hetero () in
  let pc = Power_cap.create ~window_ns:200.0 ~sample_ns:100.0 m ~cap_mw:1e9 in
  ignore (Power_cap.tick pc ~now_ns:0.0);
  Machine.charge_quantum m ~core:0 ~dt_ns:100.0 ~dvfs:1.0;
  ignore (Power_cap.tick pc ~now_ns:200.0);
  let p = Power_cap.power_mw pc in
  (* stale worker clocks must not rewind the controller's timeline *)
  ignore (Power_cap.tick pc ~now_ns:50.0);
  Alcotest.(check (float 0.0)) "older tick is a no-op" p
    (Power_cap.power_mw pc);
  Power_cap.verify pc

let test_runtime_cap_wiring () =
  (* end to end: a Systems instance built with a tiny power cap must
     actually shed while serving, and the controller's invariants must
     hold at the end of the run *)
  let inst =
    Sys_.make ~cache_scale:16
      ~charm_config:{ Charm.Config.default with power_cap_mw = 0.05 }
      Sys_.Charm Sys_.Amd_milan_1s ~n_workers:8 ()
  in
  Engine.Sched.set_energy inst.Sys_.env.Workloads.Exec_env.sched true;
  let r = Server.run inst (small_serve_cfg 7) in
  Alcotest.(check bool) "run completes" true (r.Server.makespan_ns > 0.0);
  match inst.Sys_.charm with
  | None -> Alcotest.fail "CHARM instance lost its runtime"
  | Some rt -> (
      match Charm.Runtime.power_cap rt with
      | None -> Alcotest.fail "power_cap_mw > 0 but no controller attached"
      | Some pc ->
          Alcotest.(check bool) "tiny cap forced sheds" true
            (Power_cap.sheds pc > 0);
          Alcotest.(check bool) "peak power above the cap was observed" true
            (Power_cap.max_power_mw pc > Power_cap.cap_mw pc);
          Power_cap.verify pc)

(* A capped, energy-metered serve run's energy and power-cap figures, as
   recorded before the meter sums became loops and the window a ring:
   metering and the estimator's bookkeeping observe the run and must not
   move a bit of it. *)
let test_capped_serve_pinned () =
  let inst =
    Sys_.make ~cache_scale:16
      ~charm_config:{ Charm.Config.default with power_cap_mw = 1.0 }
      Sys_.Charm Sys_.Amd_milan_1s ~n_workers:8 ()
  in
  Engine.Sched.set_energy inst.Sys_.env.Workloads.Exec_env.sched true;
  let r = Server.run inst (small_serve_cfg 7) in
  let pc = Option.get (Charm.Runtime.power_cap (Option.get inst.Sys_.charm)) in
  let g = Serving.Metrics.gauge_value r.Server.registry in
  check_bits "makespan_ns" 0x1.4e5fd39e3504dp+21 r.Server.makespan_ns;
  check_bits "serve.energy_uj" 0x1.24763017124fcp+3 (g "serve.energy_uj");
  check_bits "serve.energy_overhead_uj" 0x1.b5e2a57c914b1p-16
    (g "serve.energy_overhead_uj");
  List.iter2
    (fun (name, uj) t ->
      Alcotest.(check string) "tenant order" name t.Server.tenant;
      check_bits (name ^ " energy_uj") uj t.Server.energy_uj)
    [ ("graph", 0x1.0d4a1fc74e236p+2); ("olap", 0x1.ac9f054dc1dc3p+1);
      ("oltp", 0x1.9549411d30bb8p+0) ]
    r.Server.tenant_reports;
  check_bits "power_mw" 0x1.7188595fcb42p-1 (Power_cap.power_mw pc);
  check_bits "max_power_mw" 0x1.f9840c5146102p+2 (Power_cap.max_power_mw pc);
  Alcotest.(check int) "sheds" 9 (Power_cap.sheds pc);
  let levels = [| 0.75; 0.75; 0.5625; 0.75; 0.75; 0.5625; 1.0; 1.0 |] in
  Array.iteri
    (fun chiplet l -> check_bits (Printf.sprintf "chiplet %d level" chiplet) l
        (Power_cap.level pc ~chiplet))
    levels;
  (* a shed scales one level by 0.75 and a release undoes one shed: the
     levels hold 8 net sheds, so 1 of the 9 was released *)
  let net = Array.fold_left (fun n l -> n + int_of_float (Float.round (log l /. log 0.75))) 0 levels in
  Alcotest.(check int) "releases" 1 (Power_cap.sheds pc - net)

let suite =
  [
    Alcotest.test_case "per-kind golden energies" `Quick test_charge_golden;
    Alcotest.test_case "dvfs quadratic scaling" `Quick test_dvfs_quadratic;
    Alcotest.test_case "compute meter separate from memory meter" `Quick
      test_compute_meter_separate;
    Alcotest.test_case "chiplet meters sum to combined" `Quick
      test_chiplet_sums;
    Alcotest.test_case "meter sums match the folds bit for bit" `Quick
      test_meter_sums_match_folds;
    Alcotest.test_case "power-cap ring matches the queue model" `Quick
      test_ring_matches_queue_model;
    Alcotest.test_case "energy off is free and identical" `Quick
      test_energy_off_is_free;
    Alcotest.test_case "energy totals deterministic" `Quick
      test_energy_totals_deterministic;
    Alcotest.test_case "cap and config validation" `Quick test_cap_validation;
    Alcotest.test_case "windowed power golden value" `Quick
      test_power_estimate_golden;
    Alcotest.test_case "shed targets the hottest chiplet" `Quick
      test_cap_sheds_hottest;
    Alcotest.test_case "dead-band hysteresis, no flapping" `Quick
      test_cap_hysteresis_no_flapping;
    Alcotest.test_case "levels respect the floor" `Quick test_cap_floor;
    Alcotest.test_case "non-monotonic ticks" `Quick test_cap_nonmonotonic_ticks;
    Alcotest.test_case "runtime cap wiring end to end" `Quick
      test_runtime_cap_wiring;
    Alcotest.test_case "capped serve run pinned" `Quick test_capped_serve_pinned;
  ]
