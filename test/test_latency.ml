open Chipsim

let amd () = Presets.amd_milan ()

(* a distance class, printed as its rank *)
let distance =
  Alcotest.testable
    (fun ppf d -> Format.fprintf ppf "rank %d" (Latency.rank_of_distance d))
    ( = )

let test_classes () =
  let t = amd () in
  Alcotest.check distance "same core" Latency.Same_core (Latency.classify t 5 5);
  Alcotest.check distance "same chiplet" Latency.Same_chiplet (Latency.classify t 0 7);
  Alcotest.check distance "same group" Latency.Same_group (Latency.classify t 0 8);
  Alcotest.check distance "same socket" Latency.Same_socket (Latency.classify t 0 63);
  Alcotest.check distance "cross socket" Latency.Cross_socket (Latency.classify t 0 64)

let test_hierarchy () =
  (* the paper's §2.1 ordering: chiplet < group < socket < cross-socket *)
  let p = Latency.default_profile in
  Alcotest.(check bool) "ordering" true
    (p.Latency.same_chiplet_ns < p.Latency.same_group_ns
    && p.Latency.same_group_ns < p.Latency.same_socket_ns
    && p.Latency.same_socket_ns < p.Latency.cross_socket_ns)

let test_jitter_bounds () =
  let t = amd () in
  let p = Latency.default_profile in
  let base = p.Latency.same_chiplet_ns in
  for a = 0 to 7 do
    for b = 0 to 7 do
      if a <> b then begin
        let l = Latency.core_to_core_ns t a b in
        if l < base || l > base *. 1.09 then
          Alcotest.failf "latency %f outside [%f, %f]" l base (base *. 1.09)
      end
    done
  done

let prop_symmetry =
  QCheck.Test.make ~name:"latency is symmetric" ~count:300
    QCheck.(pair (int_range 0 127) (int_range 0 127))
    (fun (a, b) ->
      let t = amd () in
      Latency.core_to_core_ns t a b = Latency.core_to_core_ns t b a)

let prop_classify_chiplets_agrees =
  QCheck.Test.make ~name:"chiplet classification matches core classification"
    ~count:300
    QCheck.(pair (int_range 0 127) (int_range 0 127))
    (fun (a, b) ->
      let t = amd () in
      let ca = Topology.chiplet_of_core t a and cb = Topology.chiplet_of_core t b in
      ca = cb
      || Latency.classify t a b = Latency.classify_chiplets t ca cb)

let suite =
  [
    Alcotest.test_case "distance classes" `Quick test_classes;
    Alcotest.test_case "latency hierarchy" `Quick test_hierarchy;
    Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds;
    QCheck_alcotest.to_alcotest prop_symmetry;
    QCheck_alcotest.to_alcotest prop_classify_chiplets_agrees;
  ]
