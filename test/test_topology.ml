open Chipsim

let amd () = Presets.amd_milan ()

(* 1 socket x 2 chiplets x 2 cores with KB-scale caches:
   examples/topologies/tiny.topo *)
let tiny () =
  Topology.v ~sockets:1 ~chiplets_per_socket:2 ~cores_per_chiplet:2 ~chiplet_group_size:1
    ~l3_bytes_per_chiplet:(16 * 1024) ~l2_bytes_per_core:4096 ~mem_channels_per_socket:2 ()

let test_geometry () =
  let t = amd () in
  Alcotest.(check int) "cores" 128 (Topology.num_cores t);
  Alcotest.(check int) "chiplets" 16 (Topology.num_chiplets t);
  Alcotest.(check int) "cores/socket" 64 (Topology.cores_per_socket t)

let test_mapping () =
  let t = amd () in
  Alcotest.(check int) "chiplet of core 0" 0 (Topology.chiplet_of_core t 0);
  Alcotest.(check int) "chiplet of core 63" 7 (Topology.chiplet_of_core t 63);
  Alcotest.(check int) "chiplet of core 64" 8 (Topology.chiplet_of_core t 64);
  Alcotest.(check int) "socket of core 63" 0 (Topology.socket_of_core t 63);
  Alcotest.(check int) "socket of core 64" 1 (Topology.socket_of_core t 64);
  Alcotest.(check int) "socket of chiplet 8" 1 (Topology.socket_of_chiplet t 8);
  Alcotest.(check (list int)) "cores of chiplet 1" [ 8; 9; 10; 11; 12; 13; 14; 15 ]
    (Topology.cores_of_chiplet t 1);
  Alcotest.(check (list int)) "chiplets of socket 1"
    [ 8; 9; 10; 11; 12; 13; 14; 15 ]
    (List.filter
       (fun ch -> Topology.socket_of_chiplet t ch = 1)
       (List.init (Topology.num_chiplets t) Fun.id))

let test_predicates () =
  let t = amd () in
  let same_chiplet a b = Topology.chiplet_of_core t a = Topology.chiplet_of_core t b in
  Alcotest.(check bool) "same chiplet" true (same_chiplet 0 7);
  Alcotest.(check bool) "not same chiplet" false (same_chiplet 7 8);
  let same_socket a b = Topology.socket_of_core t a = Topology.socket_of_core t b in
  Alcotest.(check bool) "same socket" true (same_socket 0 63);
  Alcotest.(check bool) "not same socket" false (same_socket 63 64)

let test_validation () =
  let t = amd () in
  Alcotest.check_raises "negative core" (Invalid_argument "Topology: core -1 out of range [0,128)")
    (fun () -> Topology.validate_core t (-1));
  Alcotest.check_raises "overflow core" (Invalid_argument "Topology: core 128 out of range [0,128)")
    (fun () -> Topology.validate_core t 128);
  (try
     ignore (Topology.v ~sockets:0 ~chiplets_per_socket:1 ~cores_per_chiplet:1 ());
     Alcotest.fail "accepted zero sockets"
   with Invalid_argument _ -> ());
  (try
     ignore
       (Topology.v ~chiplet_group_size:3 ~sockets:1 ~chiplets_per_socket:8
          ~cores_per_chiplet:8 ());
     Alcotest.fail "accepted bad group size"
   with Invalid_argument _ -> ());
  try
    ignore (Topology.v ~line_bytes:48 ~sockets:1 ~chiplets_per_socket:1 ~cores_per_chiplet:1 ());
    Alcotest.fail "accepted non-power-of-two line"
  with Invalid_argument _ -> ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_pp_units () =
  (* tiny's 16 KiB L3 used to integer-divide to "0 MiB" *)
  let tiny = tiny () in
  let s = Format.asprintf "%a" Topology.pp tiny in
  Alcotest.(check bool)
    (Printf.sprintf "tiny pp shows KiB (%s)" s)
    true
    (contains s "L3 16 KiB/chiplet")

let test_pp_units_mib () =
  let s = Format.asprintf "%a" Topology.pp (amd ()) in
  Alcotest.(check bool)
    (Printf.sprintf "amd pp shows MiB (%s)" s)
    true
    (contains s "L3 32 MiB/chiplet")

let hetero_tiny () =
  Topology.v ~sockets:1 ~chiplets_per_socket:4 ~cores_per_chiplet:2
    ~chiplet_group_size:2 ~l3_bytes_per_chiplet:(16 * 1024)
    ~l2_bytes_per_core:4096 ~mem_channels_per_socket:2
    ~chiplet_kinds:[| Topology.Big; Big; Little; Accel |] ()

let test_pp_hetero_suffix () =
  let s = Format.asprintf "%a" Topology.pp (hetero_tiny ()) in
  Alcotest.(check bool)
    (Printf.sprintf "hetero pp lists kinds (%s)" s)
    true
    (contains s "kinds big:2 little:1 accel:1")

let test_groups_per_socket () =
  (* quadrants never straddle a socket: chiplet 8 is socket 1's first
     chiplet and must open a fresh group *)
  let t = amd () in
  Alcotest.(check (list int)) "milan groups"
    [ 0; 0; 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6; 7; 7 ]
    (List.init 16 (Topology.group_of_chiplet t));
  let u =
    Topology.v ~sockets:2 ~chiplets_per_socket:4 ~cores_per_chiplet:2
      ~chiplet_group_size:2 ()
  in
  Alcotest.(check (list int)) "2x4 groups" [ 0; 0; 1; 1; 2; 2; 3; 3 ]
    (List.init 8 (Topology.group_of_chiplet u))

let test_hetero_accessors () =
  let t = hetero_tiny () in
  Alcotest.(check bool) "homogeneous" true
    (Array.for_all (( = ) Topology.Big) (amd ()).Topology.chiplet_kinds);
  Alcotest.(check bool) "core 0 is big" true (Topology.kind_of_core t 0 = Topology.Big);
  Alcotest.(check bool) "core 4 is little" true
    (Topology.kind_of_core t 4 = Topology.Little);
  Alcotest.(check (float 1e-9)) "big speed" 1.0 (Topology.core_speed t 0);
  Alcotest.(check (float 1e-9)) "little speed" 0.6 (Topology.core_speed t 4);
  (* 4 big cores at 1.0, 2 little at 0.6, 2 accel capped at 1.0 *)
  Alcotest.(check (float 1e-9)) "relative capacity"
    ((4.0 +. 1.2 +. 2.0) /. 8.0)
    (Topology.relative_capacity t);
  Alcotest.(check (float 1e-9)) "homogeneous capacity" 1.0
    (Topology.relative_capacity (amd ()))

let test_hetero_validation () =
  (* wrong-length kinds array *)
  (try
     ignore
       (Topology.v ~sockets:1 ~chiplets_per_socket:2 ~cores_per_chiplet:2
          ~chiplet_group_size:1 ~chiplet_kinds:[| Topology.Big |] ());
     Alcotest.fail "accepted short chiplet_kinds"
   with Invalid_argument _ -> ());
  (* wrong-length links array *)
  (try
     ignore
       (Topology.v ~sockets:1 ~chiplets_per_socket:2 ~cores_per_chiplet:2
          ~chiplet_group_size:1 ~links:[| Topology.default_link |] ());
     Alcotest.fail "accepted short links"
   with Invalid_argument _ -> ());
  (* non-positive speed *)
  (try
     let specs = Array.copy (amd ()).Topology.kind_specs in
     specs.(1) <- { specs.(1) with Topology.speed = 0.0 };
     ignore
       (Topology.v ~sockets:1 ~chiplets_per_socket:2 ~cores_per_chiplet:2
          ~chiplet_group_size:1 ~kind_specs:specs ());
     Alcotest.fail "accepted zero speed"
   with Invalid_argument _ -> ());
  (* non-finite link multiplier *)
  try
    ignore
      (Topology.v ~sockets:1 ~chiplets_per_socket:2 ~cores_per_chiplet:2
         ~chiplet_group_size:1
         ~links:[| { Topology.lat_mult = Float.nan; bw_bytes_per_ns = 4.0 };
                   Topology.default_link |] ());
    Alcotest.fail "accepted NaN lat_mult"
  with Invalid_argument _ -> ()

let test_scale_floors () =
  (* the old flat 4096 B floor bottomed L2 out at the same size for any
     scale >= 128; per-cache line floors keep the hierarchy sane *)
  let t = Presets.amd_milan ~scale:256 () in
  Alcotest.(check int) "L2 at scale 256" 2048 t.Topology.l2_bytes_per_core;
  Alcotest.(check int) "L3 at scale 256" (128 * 1024) t.Topology.l3_bytes_per_chiplet;
  let huge = Presets.scale_topology (Presets.amd_milan ()) ~scale:1_000_000 in
  Alcotest.(check int) "L2 floor" (16 * 64) huge.Topology.l2_bytes_per_core;
  Alcotest.(check int) "L3 floor" (64 * 64) huge.Topology.l3_bytes_per_chiplet;
  Alcotest.(check bool) "hierarchy preserved" true
    (huge.Topology.l2_bytes_per_core < huge.Topology.l3_bytes_per_chiplet);
  (try
     ignore (Presets.scale_topology (amd ()) ~scale:0);
     Alcotest.fail "accepted scale 0"
   with Invalid_argument _ -> ());
  (* a small-L3 / big-L2 base inverts under scaling and must be rejected *)
  let inverted_base =
    Topology.v ~sockets:1 ~chiplets_per_socket:2 ~cores_per_chiplet:2
      ~chiplet_group_size:1 ~l3_bytes_per_chiplet:(16 * 1024)
      ~l2_bytes_per_core:(512 * 1024) ()
  in
  try
    ignore (Presets.scale_topology inverted_base ~scale:4);
    Alcotest.fail "accepted inverted hierarchy"
  with Invalid_argument _ -> ()

let test_scale_preserves_hetero () =
  let t = Presets.scale_topology (hetero_tiny ()) ~scale:2 in
  Alcotest.(check bool) "kinds survive scaling" true
    (t.Topology.chiplet_kinds = (hetero_tiny ()).Topology.chiplet_kinds)

let prop_core_roundtrip =
  QCheck.Test.make ~name:"core <-> chiplet mapping is consistent" ~count:200
    QCheck.(pair (int_range 0 127) unit)
    (fun (core, ()) ->
      let t = amd () in
      let chiplet = Topology.chiplet_of_core t core in
      List.mem core (Topology.cores_of_chiplet t chiplet))

let prop_first_core =
  QCheck.Test.make ~name:"first core of chiplet lies on it" ~count:100
    QCheck.(int_range 0 15)
    (fun chiplet ->
      let t = amd () in
      Topology.chiplet_of_core t (List.hd (Topology.cores_of_chiplet t chiplet)) = chiplet)

let suite =
  [
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "mapping" `Quick test_mapping;
    Alcotest.test_case "predicates" `Quick test_predicates;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "pp prints KiB below 1 MiB" `Quick test_pp_units;
    Alcotest.test_case "pp prints MiB" `Quick test_pp_units_mib;
    Alcotest.test_case "pp lists kinds when heterogeneous" `Quick
      test_pp_hetero_suffix;
    Alcotest.test_case "groups computed per socket" `Quick
      test_groups_per_socket;
    Alcotest.test_case "heterogeneity accessors" `Quick test_hetero_accessors;
    Alcotest.test_case "heterogeneity validation" `Quick
      test_hetero_validation;
    Alcotest.test_case "cache scaling floors per cache" `Quick
      test_scale_floors;
    Alcotest.test_case "cache scaling keeps kinds" `Quick
      test_scale_preserves_hetero;
    QCheck_alcotest.to_alcotest prop_core_roundtrip;
    QCheck_alcotest.to_alcotest prop_first_core;
  ]
