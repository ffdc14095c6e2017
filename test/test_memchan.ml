open Chipsim

let chan () =
  Memchan.create ~nodes:2 ~channels_per_node:2 ~bytes_per_ns_per_channel:1.0
    ~line_bytes:64 ()
(* bins are 1000 ns: capacity per bin = 2 * 1.0 * 1000 = 2000 bytes = ~31
   lines *)

(* the ring's length in bins *)
let slots = 8192

(* one line transfer at [now_ns] through {!Memchan.charge}'s io cell;
   returns the contention-adjusted latency *)
let access_ns c ~node ~now_ns ~base_ns =
  let io = [| now_ns; base_ns |] in
  Memchan.charge c ~node io;
  io.(0)

let test_uncontended () =
  let c = chan () in
  let l = access_ns c ~node:0 ~now_ns:0.0 ~base_ns:100.0 in
  Alcotest.(check bool) "near base" true (l >= 100.0 && l < 120.0)

let test_contention_grows () =
  let c = chan () in
  let first = access_ns c ~node:0 ~now_ns:0.0 ~base_ns:100.0 in
  (* hammer the same bin far past saturation *)
  let last = ref first in
  for _ = 1 to 100 do
    last := access_ns c ~node:0 ~now_ns:10.0 ~base_ns:100.0
  done;
  Alcotest.(check bool) "saturated latency grows" true (!last > 2.0 *. first);
  Alcotest.(check bool) "load ratio > 1" true (Memchan.load_ratio c ~node:0 ~now_ns:10.0 > 1.0)

let test_nodes_independent () =
  let c = chan () in
  for _ = 1 to 100 do
    ignore (access_ns c ~node:0 ~now_ns:0.0 ~base_ns:100.0)
  done;
  let l = access_ns c ~node:1 ~now_ns:0.0 ~base_ns:100.0 in
  Alcotest.(check bool) "other node unaffected" true (l < 140.0)

let test_bins_roll () =
  let c = chan () in
  for _ = 1 to 100 do
    ignore (access_ns c ~node:0 ~now_ns:0.0 ~base_ns:100.0)
  done;
  (* a later bin starts fresh *)
  let l = access_ns c ~node:0 ~now_ns:5_000.0 ~base_ns:100.0 in
  Alcotest.(check bool) "fresh bin" true (l < 140.0)

let test_bytes_served () =
  let c = chan () in
  for _ = 1 to 10 do
    ignore (access_ns c ~node:1 ~now_ns:0.0 ~base_ns:50.0)
  done;
  Alcotest.(check int) "bytes" 640 (Memchan.bytes_served c ~node:1);
  Memchan.reset c;
  Alcotest.(check int) "reset" 0 (Memchan.bytes_served c ~node:1)

let test_ring_wraparound_alias () =
  (* bin [slots] recycles bin 0's slot: a lagging access back in bin 0
     must neither corrupt the newer bin's demand history (the old aliasing
     bug zeroed it) nor go uncounted in the totals *)
  let c = chan () in
  let now_high = (float_of_int slots *. 1000.0) +. 500.0 in
  for _ = 1 to 10 do
    ignore (access_ns c ~node:0 ~now_ns:now_high ~base_ns:100.0)
  done;
  let load_before = Memchan.load_ratio c ~node:0 ~now_ns:now_high in
  (* lagging worker touches bin 0, whose slot now holds bin [slots] *)
  ignore (access_ns c ~node:0 ~now_ns:500.0 ~base_ns:100.0);
  Alcotest.(check int) "stale access counted" 1 (Memchan.stale_accesses c);
  Alcotest.(check (float 1e-9)) "newer bin's demand intact" load_before
    (Memchan.load_ratio c ~node:0 ~now_ns:now_high);
  Alcotest.(check int) "totals include the stale access" (11 * 64)
    (Memchan.bytes_served c ~node:0)

let test_capacity_factor_throttles () =
  let c = chan () in
  let healthy = access_ns c ~node:0 ~now_ns:0.0 ~base_ns:100.0 in
  Memchan.reset c;
  Memchan.set_capacity_factor c ~node:0 0.1;
  (* same demand against a tenth of the bandwidth saturates *)
  let throttled = ref 0.0 in
  for _ = 1 to 40 do
    throttled := access_ns c ~node:0 ~now_ns:0.0 ~base_ns:100.0
  done;
  Alcotest.(check bool) "throttled node is slower" true
    (!throttled > 2.0 *. healthy);
  (* the factor scales the bin's capacity, so the load of one line in a
     fresh bin (64 of 2000 bytes at full health) reads it back *)
  let c = chan () in
  ignore (access_ns c ~node:0 ~now_ns:0.0 ~base_ns:100.0);
  Alcotest.(check (float 1e-9)) "factor clamped below" (0.032 /. 0.01)
    (Memchan.set_capacity_factor c ~node:0 0.0;
     Memchan.load_ratio c ~node:0 ~now_ns:0.0);
  Alcotest.(check (float 1e-9)) "factor clamped above" 0.032
    (Memchan.set_capacity_factor c ~node:0 5.0;
     Memchan.load_ratio c ~node:0 ~now_ns:0.0)

let test_bad_node () =
  let c = chan () in
  Alcotest.check_raises "node range" (Invalid_argument "Memchan: node out of range")
    (fun () -> ignore (access_ns c ~node:2 ~now_ns:0.0 ~base_ns:1.0))

let suite =
  [
    Alcotest.test_case "uncontended near base" `Quick test_uncontended;
    Alcotest.test_case "contention inflates" `Quick test_contention_grows;
    Alcotest.test_case "nodes independent" `Quick test_nodes_independent;
    Alcotest.test_case "bins roll over" `Quick test_bins_roll;
    Alcotest.test_case "bytes served" `Quick test_bytes_served;
    Alcotest.test_case "ring wraparound alias" `Quick test_ring_wraparound_alias;
    Alcotest.test_case "capacity factor throttles" `Quick
      test_capacity_factor_throttles;
    Alcotest.test_case "bad node" `Quick test_bad_node;
  ]
