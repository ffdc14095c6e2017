(* a healthy worker's decision on one tick's remote fill counts *)
let decide c ~chiplet ~numa ~dram =
  Charm.Controller.decide c ~degraded:false ~remote_chiplet:chiplet ~dram
    ~remote:(chiplet + numa + dram)

let mode c = Charm.Config.approach_to_string (Charm.Controller.mode c)

let base = Charm.Config.default.Charm.Config.rmt_chip_access_rate

let test_static_modes () =
  let loc =
    Charm.Controller.create
      { Charm.Config.default with Charm.Config.approach = Charm.Config.Location_centric }
  in
  let d = decide loc ~chiplet:0 ~numa:0 ~dram:1000 in
  Alcotest.(check bool) "location threshold high" true (d.Charm.Controller.threshold > base);
  let cache =
    Charm.Controller.create
      { Charm.Config.default with Charm.Config.approach = Charm.Config.Cache_centric }
  in
  let d = decide cache ~chiplet:1000 ~numa:0 ~dram:0 in
  Alcotest.(check bool) "cache threshold low" true (d.Charm.Controller.threshold < base)

let test_adaptive_dram_heavy () =
  let c = Charm.Controller.create Charm.Config.default in
  let d = decide c ~chiplet:10 ~numa:0 ~dram:1000 in
  Alcotest.(check string) "cache-centric when thrashing" "cache-centric" (mode c);
  Alcotest.(check bool) "eager to spread" true (d.Charm.Controller.threshold < base)

let test_adaptive_sharing_heavy () =
  let c = Charm.Controller.create Charm.Config.default in
  ignore (decide c ~chiplet:1000 ~numa:10 ~dram:10);
  Alcotest.(check string) "location-centric when sharing" "location-centric" (mode c)

let test_adaptive_keeps_mode_when_ambiguous () =
  let c = Charm.Controller.create Charm.Config.default in
  ignore (decide c ~chiplet:0 ~numa:0 ~dram:100);
  ignore (decide c ~chiplet:40 ~numa:30 ~dram:30);
  Alcotest.(check string) "sticks to last mode" "cache-centric" (mode c)

let test_mode_switch_counted () =
  let c = Charm.Controller.create Charm.Config.default in
  ignore (decide c ~chiplet:0 ~numa:0 ~dram:100);
  Alcotest.(check int) "first resolution is not a switch" 0
    (Charm.Controller.mode_switches c);
  ignore (decide c ~chiplet:100 ~numa:0 ~dram:0);
  Alcotest.(check int) "direction change counted once" 1
    (Charm.Controller.mode_switches c);
  ignore (decide c ~chiplet:100 ~numa:0 ~dram:0);
  Alcotest.(check int) "steady mode adds nothing" 1
    (Charm.Controller.mode_switches c)

let suite =
  [
    Alcotest.test_case "static modes scale threshold" `Quick test_static_modes;
    Alcotest.test_case "adaptive: dram-heavy -> cache-centric" `Quick test_adaptive_dram_heavy;
    Alcotest.test_case "adaptive: sharing-heavy -> location-centric" `Quick
      test_adaptive_sharing_heavy;
    Alcotest.test_case "adaptive: ambiguous keeps mode" `Quick
      test_adaptive_keeps_mode_when_ambiguous;
    Alcotest.test_case "mode switches counted" `Quick test_mode_switch_counted;
  ]
