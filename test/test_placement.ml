open Chipsim
module Placement = Charm.Placement

let amd () = Presets.amd_milan ()

let test_paper_example () =
  (* 64 workers, 8-core chiplets: spread_rate 1 is invalid (paper §4.3) *)
  let topo = amd () in
  Alcotest.(check bool) "spread 1 invalid for 64" false
    (Placement.valid_spread topo ~spread_rate:1 ~n_workers:64);
  Alcotest.(check bool) "spread 8 valid for 64" true
    (Placement.valid_spread topo ~spread_rate:8 ~n_workers:64);
  Alcotest.(check int) "min valid spread" 8 (Placement.min_valid_spread topo ~n_workers:64);
  Alcotest.(check int) "8 workers can pack" 1 (Placement.min_valid_spread topo ~n_workers:8)

let test_compact_fills_chiplet () =
  let topo = amd () in
  match Placement.gang topo ~spread_rate:1 ~n_workers:8 with
  | Some cores ->
      Alcotest.(check (array int)) "chiplet 0 cores" (Array.init 8 Fun.id) cores
  | None -> Alcotest.fail "spread 1 should be valid for 8 workers"

let test_spread_uses_more_chiplets () =
  let topo = amd () in
  let chiplets_used spread n =
    match Placement.gang topo ~spread_rate:spread ~n_workers:n with
    | None -> -1
    | Some cores ->
        Array.to_list cores
        |> List.map (Topology.chiplet_of_core topo)
        |> List.sort_uniq compare |> List.length
  in
  Alcotest.(check int) "spread 1 -> 1 chiplet" 1 (chiplets_used 1 8);
  Alcotest.(check int) "spread 2 -> 2 chiplets" 2 (chiplets_used 2 8);
  Alcotest.(check int) "spread 8 -> 8 chiplets" 8 (chiplets_used 8 8)

let test_socket_fill () =
  let topo = amd () in
  (* 64 workers stay on socket 0 regardless of spread *)
  match Placement.gang topo ~spread_rate:8 ~n_workers:64 with
  | None -> Alcotest.fail "valid gang expected"
  | Some cores ->
      Array.iter
        (fun core ->
          Alcotest.(check int) "socket 0" 0 (Topology.socket_of_core topo core))
        cores

let test_second_socket_spills () =
  let topo = amd () in
  match Placement.gang topo ~spread_rate:8 ~n_workers:96 with
  | None -> Alcotest.fail "valid gang expected"
  | Some cores ->
      let sockets = Array.map (Topology.socket_of_core topo) cores in
      Alcotest.(check int) "worker 0 on socket 0" 0 sockets.(0);
      Alcotest.(check int) "worker 64 on socket 1" 1 sockets.(64)

(* Alg. 2's key guarantee: for every valid configuration, the mapping is
   injective and in range (paper: "a deterministic and collision-free core
   assignment"). *)
let prop_collision_free =
  QCheck.Test.make ~name:"alg2 is collision-free over valid configs" ~count:500
    QCheck.(pair (int_range 1 8) (int_range 1 128))
    (fun (spread_rate, n_workers) ->
      let topo = amd () in
      if not (Placement.valid_spread topo ~spread_rate ~n_workers) then true
      else
        match Placement.gang topo ~spread_rate ~n_workers with
        | Some cores ->
            Array.for_all (fun c -> c >= 0 && c < Topology.num_cores topo) cores
        | None -> false)

let prop_intel_collision_free =
  QCheck.Test.make ~name:"alg2 collision-free on the Intel preset" ~count:300
    QCheck.(pair (int_range 1 4) (int_range 1 96))
    (fun (spread_rate, n_workers) ->
      let topo = Presets.intel_spr () in
      if not (Placement.valid_spread topo ~spread_rate ~n_workers) then true
      else Option.is_some (Placement.gang topo ~spread_rate ~n_workers))

(* heterogeneity: a gang on a big/little machine fills big chiplets
   first, and a homogeneous machine keeps the identity order *)
let hetero () =
  Topology.v ~sockets:1 ~chiplets_per_socket:4 ~cores_per_chiplet:2
    ~chiplet_group_size:2 ~l3_bytes_per_chiplet:(16 * 1024)
    ~l2_bytes_per_core:4096 ~mem_channels_per_socket:2
    ~chiplet_kinds:[| Topology.Little; Accel; Big; Little |] ()

let test_prefer_big_cores () =
  let topo = hetero () in
  (match Placement.gang topo ~spread_rate:2 ~n_workers:4 with
  | None -> Alcotest.fail "valid gang expected"
  | Some cores ->
      (* general-task chiplets first: big chiplet 2 (1.0), littles 0 and 3
         (0.6, stable by index), and the accel chiplet 1 (general-tasks 0)
         last; spread 2 interleaves the gang across the two fastest
         general chiplets *)
      Alcotest.(check (array int)) "fast general chiplets first"
        [| 4; 0; 5; 1 |] cores);
  match Placement.gang (amd ()) ~spread_rate:1 ~n_workers:8 with
  | None -> Alcotest.fail "valid gang expected"
  | Some cores ->
      Alcotest.(check (array int)) "homogeneous unchanged"
        (Array.init 8 Fun.id) cores

let prop_hetero_collision_free =
  QCheck.Test.make ~name:"alg2 collision-free on a hetero machine" ~count:300
    QCheck.(pair (int_range 1 2) (int_range 1 8))
    (fun (spread_rate, n_workers) ->
      let topo = hetero () in
      if not (Placement.valid_spread topo ~spread_rate ~n_workers) then true
      else
        match Placement.gang topo ~spread_rate ~n_workers with
        | Some cores ->
            let sorted = Array.copy cores in
            Array.sort compare sorted;
            Array.length
              (Array.of_list (List.sort_uniq compare (Array.to_list cores)))
            = Array.length cores
            && Array.for_all
                 (fun c -> c >= 0 && c < Topology.num_cores topo)
                 sorted
        | None -> false)

let test_out_of_range_worker () =
  let topo = amd () in
  Alcotest.check_raises "worker range"
    (Invalid_argument "Placement.core_of_worker: worker out of range") (fun () ->
      ignore (Placement.core_of_worker topo ~spread_rate:1 ~n_workers:4 ~worker:4))

let suite =
  [
    Alcotest.test_case "paper bounds-check example" `Quick test_paper_example;
    Alcotest.test_case "compact fills one chiplet" `Quick test_compact_fills_chiplet;
    Alcotest.test_case "spread uses more chiplets" `Quick test_spread_uses_more_chiplets;
    Alcotest.test_case "socket fill" `Quick test_socket_fill;
    Alcotest.test_case "second socket spills" `Quick test_second_socket_spills;
    Alcotest.test_case "out-of-range worker" `Quick test_out_of_range_worker;
    Alcotest.test_case "big cores preferred on hetero machines" `Quick
      test_prefer_big_cores;
    QCheck_alcotest.to_alcotest prop_collision_free;
    QCheck_alcotest.to_alcotest prop_intel_collision_free;
    QCheck_alcotest.to_alcotest prop_hetero_collision_free;
  ]
