open Chipsim

let machine () = Machine.create (Presets.amd_milan ())

let test_dram_then_l3 () =
  let m = machine () in
  let r = Machine.alloc m ~elt_bytes:8 ~count:8 () in
  let c1 = Machine.touch m ~core:0 ~now_ns:0.0 ~write:false r 0 in
  (* first touch: local DRAM *)
  Alcotest.(check bool) "dram cost" true (c1 >= 110.0);
  Alcotest.(check int) "dram local counted" 1 (Pmu.read (Machine.pmu m) ~core:0 Pmu.Dram_local);
  (* L2 now holds it *)
  let c2 = Machine.touch m ~core:0 ~now_ns:200.0 ~write:false r 0 in
  Alcotest.(check bool) "l2 hit cheap" true (c2 < 15.0);
  (* another core on the same chiplet misses L2, hits the shared L3 *)
  let c3 = Machine.touch m ~core:1 ~now_ns:400.0 ~write:false r 0 in
  Alcotest.(check bool) "l3 local" true (c3 >= 20.0 && c3 < 40.0);
  Alcotest.(check int) "l3 hit counted" 1 (Pmu.read (Machine.pmu m) ~core:1 Pmu.L3_local_hit)

let test_remote_chiplet_fill () =
  let m = machine () in
  let r = Machine.alloc m ~elt_bytes:8 ~count:8 () in
  ignore (Machine.touch m ~core:0 ~now_ns:0.0 ~write:false r 0);
  (* core 8 is chiplet 1, same group: cache-to-cache fill *)
  let c = Machine.touch m ~core:8 ~now_ns:100.0 ~write:false r 0 in
  Alcotest.(check bool) "group-fill cost" true (c >= 80.0 && c <= 100.0);
  Alcotest.(check int) "remote chiplet fill" 1
    (Pmu.read (Machine.pmu m) ~core:8 Pmu.Fill_remote_chiplet)

let test_remote_numa_fill () =
  let m = machine () in
  let r = Machine.alloc m ~elt_bytes:8 ~count:8 () in
  ignore (Machine.touch m ~core:0 ~now_ns:0.0 ~write:false r 0);
  let c = Machine.touch m ~core:64 ~now_ns:100.0 ~write:false r 0 in
  Alcotest.(check bool) "cross-socket cost" true (c >= 200.0);
  Alcotest.(check int) "remote numa fill" 1
    (Pmu.read (Machine.pmu m) ~core:64 Pmu.Fill_remote_numa)

let test_write_invalidation () =
  let m = machine () in
  let r = Machine.alloc m ~elt_bytes:8 ~count:8 () in
  ignore (Machine.touch m ~core:0 ~now_ns:0.0 ~write:false r 0);
  ignore (Machine.touch m ~core:8 ~now_ns:100.0 ~write:false r 0);
  (* a write from chiplet 2 invalidates both copies *)
  ignore (Machine.touch m ~core:16 ~now_ns:200.0 ~write:true r 0);
  Alcotest.(check int) "two invalidations" 2
    (Pmu.read (Machine.pmu m) ~core:16 Pmu.Coherence_invalidation);
  (* chiplet 0 must now re-fetch from chiplet 2 *)
  let c = Machine.touch m ~core:2 ~now_ns:300.0 ~write:false r 0 in
  Alcotest.(check bool) "refetch is a fill" true (c >= 80.0)

let test_remote_dram () =
  let m = machine () in
  let r = Machine.alloc m ~policy:(Simmem.Bind 1) ~elt_bytes:8 ~count:8 () in
  let c = Machine.touch m ~core:0 ~now_ns:0.0 ~write:false r 0 in
  Alcotest.(check bool) "remote dram cost" true (c >= 190.0);
  Alcotest.(check int) "remote dram counted" 1
    (Pmu.read (Machine.pmu m) ~core:0 Pmu.Dram_remote)

let test_touch_range_lines () =
  let m = machine () in
  (* 64 elements of 8B = 8 cache lines *)
  let r = Machine.alloc m ~elt_bytes:8 ~count:64 () in
  ignore (Machine.touch_range m ~core:0 ~now_ns:0.0 ~write:false r ~lo:0 ~hi:64);
  Alcotest.(check int) "8 dram line fills" 8
    (Pmu.read (Machine.pmu m) ~core:0 Pmu.Dram_local)

let test_flush () =
  let m = machine () in
  let r = Machine.alloc m ~elt_bytes:8 ~count:8 () in
  ignore (Machine.touch m ~core:0 ~now_ns:0.0 ~write:false r 0);
  Machine.reset m;
  let c = Machine.touch m ~core:0 ~now_ns:100.0 ~write:false r 0 in
  Alcotest.(check bool) "cold again" true (c >= 110.0)


let test_prefetch_discount () =
  let m = machine () in
  (* 512 elements x 8B = 64 lines, all cold DRAM *)
  let r1 = Machine.alloc m ~elt_bytes:8 ~count:512 () in
  let r2 = Machine.alloc m ~elt_bytes:8 ~count:512 () in
  let seq = Machine.touch_range m ~core:0 ~now_ns:0.0 ~write:false r1 ~lo:0 ~hi:512 in
  let random = ref 0.0 in
  (* one element per cache line, touched individually *)
  for i = 0 to 63 do
    random := !random +. Machine.touch m ~core:0 ~now_ns:!random ~write:false r2 (i * 8)
  done;
  Alcotest.(check bool) "streaming is much cheaper than pointer chasing" true
    (seq < 0.6 *. !random)

let test_link_saturation () =
  (* 8 cores of one chiplet streaming together must see higher latency
     than a lone streamer (GMI link queueing) *)
  let solo =
    let m = machine () in
    let r = Machine.alloc m ~elt_bytes:8 ~count:(1 lsl 16) () in
    Machine.touch_range m ~core:0 ~now_ns:0.0 ~write:false r ~lo:0 ~hi:(1 lsl 16)
  in
  let crowded =
    let m = machine () in
    let regions = Array.init 8 (fun _ -> Machine.alloc m ~elt_bytes:8 ~count:(1 lsl 16) ()) in
    (* interleave the 8 cores' streams in time so they share bins *)
    let clocks = Array.make 8 0.0 in
    let chunk = 512 in
    for step = 0 to ((1 lsl 16) / chunk) - 1 do
      for core = 0 to 7 do
        let lo = step * chunk in
        clocks.(core) <-
          clocks.(core)
          +. Machine.touch_range m ~core ~now_ns:clocks.(core) ~write:false
               regions.(core) ~lo ~hi:(lo + chunk)
      done
    done;
    clocks.(0)
  in
  Alcotest.(check bool) "contended stream slower" true (crowded > 1.2 *. solo)

(* heterogeneous kinds: a little core's accesses cost access_mult more
   than a big core's identical access, every access charges its kind's
   energy, and an all-big machine is bit-identical to the historical
   model *)
let test_kind_costs () =
  let hetero =
    Topology.v ~sockets:1 ~chiplets_per_socket:2 ~cores_per_chiplet:2
      ~chiplet_group_size:1 ~l3_bytes_per_chiplet:(16 * 1024)
      ~l2_bytes_per_core:4096 ~mem_channels_per_socket:2
      ~chiplet_kinds:[| Topology.Big; Topology.Little |] ()
  in
  let m = Machine.create hetero in
  let r = Machine.alloc m ~elt_bytes:8 ~count:64 () in
  (* identical cold DRAM access from a big core (0) and a little core
     (2), on disjoint lines so neither warms the other's path *)
  let big = Machine.touch m ~core:0 ~now_ns:0.0 ~write:false r 0 in
  let little = Machine.touch m ~core:2 ~now_ns:0.0 ~write:false r 32 in
  let mult = (Topology.spec_of_kind hetero Topology.Little).Topology.access_mult in
  Alcotest.(check (float 1e-6)) "little pays access-mult" (big *. mult) little;
  let e_big = (Topology.spec_of_kind hetero Topology.Big).Topology.energy_pj in
  let e_little = (Topology.spec_of_kind hetero Topology.Little).Topology.energy_pj in
  Alcotest.(check (float 1e-9)) "big energy" e_big (Machine.energy_pj m ~core:0);
  Alcotest.(check (float 1e-9)) "little energy" e_little
    (Machine.energy_pj m ~core:2);
  Alcotest.(check (float 1e-9)) "total energy" (e_big +. e_little)
    (Machine.total_energy_pj m)

let test_homogeneous_bit_identical () =
  (* the default kind table must not perturb a homogeneous machine *)
  let a = machine () and b = machine () in
  let ra = Machine.alloc a ~elt_bytes:8 ~count:256 () in
  let rb = Machine.alloc b ~elt_bytes:8 ~count:256 () in
  for i = 0 to 255 do
    let ca = Machine.touch a ~core:(i mod 16) ~now_ns:(float_of_int i) ~write:(i mod 3 = 0) ra i in
    let cb = Machine.touch b ~core:(i mod 16) ~now_ns:(float_of_int i) ~write:(i mod 3 = 0) rb i in
    if ca <> cb then Alcotest.failf "access %d diverged: %f vs %f" i ca cb
  done

(* Every fill class, and a write that invalidates two holders, allocates
   nothing on the OCaml heap at the [access_clk] level: floats cross the
   per-access path only through the caller's clock cell and the machine's
   own cells. *)
let test_access_allocates_nothing () =
  let m = machine () in
  let r = Machine.alloc m ~elt_bytes:8 ~count:4096 () in
  let clk = [| 0.0 |] in
  let minor_words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.0)) "empty section" 0.0 (minor_words ignore);
  let access ~core ~write i () =
    Machine.access_clk m ~core ~write (Simmem.addr r i) clk 0
  in
  let pmu = Machine.pmu m in
  let zero name ev ~core ~write i n =
    let before = Pmu.read pmu ~core ev in
    Alcotest.(check (float 0.0))
      (name ^ ": minor words") 0.0
      (minor_words (access ~core ~write i));
    Alcotest.(check int) (name ^ ": fill class") n (Pmu.read pmu ~core ev - before)
  in
  (* element 0 on a fresh page; elements 8, 16, 24 are lines of their own *)
  zero "dram" Pmu.Dram_local ~core:0 ~write:false 0 1;
  zero "l2 hit" Pmu.L2_hit ~core:0 ~write:false 0 1;
  zero "local l3" Pmu.L3_local_hit ~core:1 ~write:false 0 1;
  (* core 8 is chiplet 1, same socket; core 64 is on the other socket *)
  zero "remote chiplet" Pmu.Fill_remote_chiplet ~core:8 ~write:false 0 1;
  zero "remote numa" Pmu.Fill_remote_numa ~core:64 ~write:false 0 1;
  ignore (access ~core:0 ~write:false 8 ());
  ignore (access ~core:8 ~write:false 8 ());
  zero "write invalidating two holders" Pmu.Coherence_invalidation ~core:16
    ~write:true 8 2

(* Chiplet 0 fills its whole L3 (8,192 lines at scale 64), loses all but
   one way, and chiplet 1 then reads the same lines: only the 512 lines
   chiplet 0 still holds may come from it, the rest from DRAM.  Stale
   directory bits for the dropped lines would make all 8,192 remote
   fills. *)
let test_l3_way_loss_clears_directory () =
  let m = Machine.create (Presets.amd_milan ~scale:64 ()) in
  let lines = 8192 in
  let r = Machine.alloc m ~elt_bytes:64 ~count:lines () in
  for i = 0 to lines - 1 do
    ignore (Machine.touch m ~core:0 ~now_ns:0.0 ~write:false r i)
  done;
  Machine.set_l3_ways m ~chiplet:0 ~ways:1;
  Machine.check_invariants_full m;
  for i = 0 to lines - 1 do
    ignore (Machine.touch m ~core:8 ~now_ns:0.0 ~write:false r i)
  done;
  let pmu = Machine.pmu m in
  Alcotest.(check int) "remote-chiplet fills" 512
    (Pmu.read pmu ~core:8 Pmu.Fill_remote_chiplet);
  Alcotest.(check int) "dram fills" (lines - 512)
    (Pmu.read pmu ~core:8 Pmu.Dram_local + Pmu.read pmu ~core:8 Pmu.Dram_remote);
  Machine.check_invariants_full m

let suite =
  [
    Alcotest.test_case "dram then cache hits" `Quick test_dram_then_l3;
    Alcotest.test_case "kind access and energy costs" `Quick test_kind_costs;
    Alcotest.test_case "homogeneous runs unperturbed" `Quick
      test_homogeneous_bit_identical;
    Alcotest.test_case "prefetch discount" `Quick test_prefetch_discount;
    Alcotest.test_case "link saturation" `Quick test_link_saturation;
    Alcotest.test_case "remote chiplet fill" `Quick test_remote_chiplet_fill;
    Alcotest.test_case "remote numa fill" `Quick test_remote_numa_fill;
    Alcotest.test_case "write invalidation" `Quick test_write_invalidation;
    Alcotest.test_case "remote dram" `Quick test_remote_dram;
    Alcotest.test_case "touch_range per line" `Quick test_touch_range_lines;
    Alcotest.test_case "flush" `Quick test_flush;
    Alcotest.test_case "L3 way loss clears directory" `Quick
      test_l3_way_loss_clears_directory;
    Alcotest.test_case "access allocates nothing per fill class" `Quick
      test_access_allocates_nothing;
  ]
