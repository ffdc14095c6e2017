(* Topology config-file loader: round-trips, golden preset equivalence,
   rejection diagnostics, and preset-as-data vs preset-as-code run
   determinism.  The shipped files under examples/topologies/ are found
   by probing upward from the dune sandbox cwd. *)

open Chipsim

let topo_dir =
  List.find_opt (fun d -> Sys.file_exists d && Sys.is_directory d)
    [
      "examples/topologies";
      "../examples/topologies";
      "../../examples/topologies";
      "../../../examples/topologies";
      "../../../../examples/topologies";
    ]

let shipped_files () =
  match topo_dir with
  | None -> []
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".topo")
      |> List.sort compare
      |> List.map (Filename.concat dir)

let load file =
  match Topology.of_file file with
  | Ok t -> t
  | Error msg -> Alcotest.failf "%s: %s" file msg

let test_shipped_roundtrip () =
  let files = shipped_files () in
  if files = [] then Alcotest.fail "examples/topologies not found from test cwd";
  List.iter
    (fun file ->
      let t = load file in
      match Topology.of_string (Topology.to_spec t) with
      | Ok t' -> Alcotest.(check bool) (file ^ ": of_string (to_spec t) = t") true (t = t')
      | Error msg -> Alcotest.failf "%s: to_spec not parseable: %s" file msg)
    files

(* a single-kind machine used to print as all-big: every one of the 81
   kind assignments of a 4-chiplet machine must survive both text forms *)
let test_every_kind_assignment_roundtrips () =
  let kinds = [| Topology.Big; Topology.Little; Topology.Accel |] in
  for code = 0 to 80 do
    let chiplet_kinds = Array.init 4 (fun i -> kinds.(code / [| 1; 3; 9; 27 |].(i) mod 3)) in
    let t =
      Topology.v ~chiplet_kinds ~sockets:1 ~chiplets_per_socket:4 ~cores_per_chiplet:2 ()
    in
    List.iter
      (fun (form, text) ->
        match Topology.of_string text with
        | Ok t' when t = t' -> ()
        | Ok _ -> Alcotest.failf "assignment %d: of_string (%s t) <> t:\n%s" code form text
        | Error msg -> Alcotest.failf "assignment %d: %s not parseable: %s" code form msg)
      [
        ("to_spec", Topology.to_spec t);
        ("one directive per line", String.concat "\n" (String.split_on_char ';' (Topology.to_spec t)));
      ]
  done

let test_golden_presets () =
  match topo_dir with
  | None -> Alcotest.fail "examples/topologies not found from test cwd"
  | Some dir ->
      let check_golden file preset =
        let t = load (Filename.concat dir file) in
        Alcotest.(check bool)
          (file ^ " equals its code preset")
          true
          (t = preset)
      in
      check_golden "milan.topo" (Presets.amd_milan ());
      check_golden "milan-1s.topo" (Presets.amd_milan_1s ());
      check_golden "spr.topo" (Presets.intel_spr ());
      check_golden "tiny.topo" (Test_topology.tiny ())

let test_hetero_file () =
  match topo_dir with
  | None -> Alcotest.fail "examples/topologies not found from test cwd"
  | Some dir ->
      let t = load (Filename.concat dir "tiny-hetero.topo") in
      Alcotest.(check bool) "chiplet 2 little" true
        (Topology.kind_of_chiplet t 2 = Topology.Little);
      Alcotest.(check bool) "chiplet 3 accel" true
        (Topology.kind_of_chiplet t 3 = Topology.Accel);
      let link = t.Topology.links.(3) in
      Alcotest.(check (float 1e-9)) "link 3 lat-mult" 1.5 link.Topology.lat_mult;
      Alcotest.(check (float 1e-9)) "link 3 bw" 2.0 link.Topology.bw_bytes_per_ns

let reject spec expect_frag =
  match Topology.of_string spec with
  | Ok _ -> Alcotest.failf "accepted %S" spec
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S error %S mentions %S" spec msg expect_frag)
        true
        (contains msg expect_frag)

let minimal = "sockets 1; chiplets-per-socket 2; cores-per-chiplet 2; chiplet-group-size 1"

let test_rejections () =
  reject "" "missing";
  reject "sockets 1" "missing";
  reject "sockets x; chiplets-per-socket 2; cores-per-chiplet 2" "sockets";
  reject (minimal ^ "; l3-bytes-per-chiplet 16QiB") "l3-bytes-per-chiplet";
  reject (minimal ^ "; frobnicate 3") "frobnicate";
  reject (minimal ^ "; chiplet-kinds big") "chiplet-kinds";
  reject (minimal ^ "; chiplet-kinds big medium") "medium";
  reject (minimal ^ "; kind little speed -1 access-mult 1 energy-pj 1") "speed";
  reject (minimal ^ "; kind turbo speed 2 access-mult 1 energy-pj 1") "turbo";
  reject (minimal ^ "; link 7 lat-mult 1.5 bw 2") "link";
  reject (minimal ^ "; link 0 lat-mult 1.5 frequency 2") "frequency";
  reject "sockets 1; chiplets-per-socket 8; cores-per-chiplet 2; chiplet-group-size 3"
    "group"

let test_comment_semicolon () =
  (* a ';' inside a '#' comment must not start a new directive *)
  match
    Topology.of_string
      (minimal ^ "\n# one thing; and another thing\nl3-bytes-per-chiplet 16KiB")
  with
  | Ok t -> Alcotest.(check int) "l3" (16 * 1024) t.Topology.l3_bytes_per_chiplet
  | Error msg -> Alcotest.failf "rejected commented spec: %s" msg

let test_of_file_missing () =
  match Topology.of_file "/nonexistent/nope.topo" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error _ -> ()

(* preset-as-data and preset-as-code must produce bit-identical runs:
   the same engine event counts and the same virtual makespan *)
let events_of inst =
  let machine = inst.Harness.Systems.machine in
  let pmu = Machine.pmu machine in
  Machine.accesses machine
  + Pmu.total pmu Pmu.Context_switch
  + Pmu.total pmu Pmu.Task_stolen

let run_gups inst =
  let env = inst.Harness.Systems.env in
  ignore
    (Workloads.Gups.run env
       { Workloads.Gups.table_words = 1 lsl 12; updates = 1 lsl 10; seed = 7 })

let test_run_determinism () =
  match topo_dir with
  | None -> Alcotest.fail "examples/topologies not found from test cwd"
  | Some dir ->
      let module Sys_ = Harness.Systems in
      let custom =
        Sys_.Custom { name = "milan"; topo = load (Filename.concat dir "milan.topo") }
      in
      let run machine =
        let inst = Sys_.make ~cache_scale:32 Sys_.Charm machine ~n_workers:8 () in
        run_gups inst;
        (events_of inst, (Sys_.report inst).Engine.Stats.makespan_ns)
      in
      let ev_data, mk_data = run custom in
      let ev_code, mk_code = run Sys_.Amd_milan in
      Alcotest.(check int) "event counts identical" ev_code ev_data;
      Alcotest.(check (float 0.0)) "makespan identical" mk_code mk_data

(* regression: an accel chiplet (speed > 1) rescales quanta backward,
   which once emptied the scheduler's advisory heap with future tasks
   still queued and tripped an assert in pop_own_slow *)
let test_hetero_end_to_end () =
  match topo_dir with
  | None -> Alcotest.fail "examples/topologies not found from test cwd"
  | Some dir ->
      let module Sys_ = Harness.Systems in
      let topo = load (Filename.concat dir "tiny-hetero.topo") in
      let inst =
        Sys_.make Sys_.Charm
          (Sys_.Custom { name = "tiny-hetero"; topo })
          ~n_workers:8 ()
      in
      run_gups inst;
      Alcotest.(check bool) "simulated some events" true (events_of inst > 0);
      Alcotest.(check bool) "accel cores spent energy" true
        (Chipsim.Machine.total_energy_pj inst.Sys_.machine > 0.0)

let suite =
  [
    Alcotest.test_case "shipped files round-trip" `Quick test_shipped_roundtrip;
    Alcotest.test_case "every kind assignment round-trips" `Quick
      test_every_kind_assignment_roundtrips;
    Alcotest.test_case "preset files equal code presets" `Quick
      test_golden_presets;
    Alcotest.test_case "tiny-hetero parses fully" `Quick test_hetero_file;
    Alcotest.test_case "malformed specs rejected with field names" `Quick
      test_rejections;
    Alcotest.test_case "';' in comments is inert" `Quick test_comment_semicolon;
    Alcotest.test_case "of_file on missing path" `Quick test_of_file_missing;
    Alcotest.test_case "preset-as-data runs bit-identical" `Quick
      test_run_determinism;
    Alcotest.test_case "heterogeneous machine end-to-end" `Quick
      test_hetero_end_to_end;
  ]
