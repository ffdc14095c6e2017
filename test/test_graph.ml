open Workloads

let env ?(workers = 8) () =
  let inst = Harness.Systems.make Harness.Systems.Charm Harness.Systems.Amd_milan ~n_workers:workers () in
  inst.Harness.Systems.env

let small_graph env_ =
  let kron = Kronecker.generate ~scale:8 ~edge_factor:8 () in
  Csr.of_kronecker
    ~alloc:(fun ~elt_bytes ~count -> env_.Exec_env.alloc_shared ~elt_bytes ~count)
    kron

let weighted_graph env_ =
  let kron = Kronecker.generate ~scale:8 ~edge_factor:8 () in
  Csr.of_kronecker ~weighted:true
    ~alloc:(fun ~elt_bytes ~count -> env_.Exec_env.alloc_shared ~elt_bytes ~count)
    kron

let test_kronecker_shape () =
  let k = Kronecker.generate ~scale:10 ~edge_factor:16 () in
  Alcotest.(check int) "vertices" 1024 (Kronecker.num_vertices k);
  Alcotest.(check int) "edges" (16 * 1024) (Array.length k.Kronecker.src);
  Array.iteri
    (fun i u -> if u = k.Kronecker.dst.(i) then Alcotest.fail "self loop")
    k.Kronecker.src

let test_kronecker_deterministic () =
  let a = Kronecker.generate ~seed:5 ~scale:8 () in
  let b = Kronecker.generate ~seed:5 ~scale:8 () in
  Alcotest.(check (array int)) "same src" a.Kronecker.src b.Kronecker.src

(* A bump allocator: each region's base pins the allocation order and size. *)
let bump () =
  let next = ref 0 in
  fun ~elt_bytes ~count ->
    let base = !next in
    next := base + (elt_bytes * count);
    { Chipsim.Simmem.base; length_bytes = elt_bytes * count; elt_bytes; region_policy = First_touch }

let md5 v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* (seed, scale, edge factor): the Kronecker edge lists, then the
   unweighted and the weighted CSR's (row_ptr, col, weight).  Recorded
   from the branchy per-edge generator and the copy-then-sort CSR build
   the current builders replaced; every array must stay byte-identical. *)
let golden_graphs =
  [
    ((1, 1, 1), "38ae083575c29eb6d7ee29635a0fccb4", "aecabd5de4bb1b5561c3b9afaa1e1211", "3d4d15c27bd4d203d5b36510b7aaa2fb");
    ((16, 12, 16), "8c84b9aa6be125023f7dcb03820cd7f4", "314cb354ee7aee525544a20399db23b5", "3ad0ed08151cb1c51eceae44fa1fd0fd");
    ((42, 8, 8), "9c8ea3a2c1a2b04286bd3726bc9c53e8", "55ff731313e1fd54e218d5f2739696c6", "f7f763098891920256bcfcc0e52d7690");
    ((5, 10, 4), "ee70d6c35d3eac49aab4f13cd3015c1c", "92fd1a7a4007d9ba1c1a32c0854fc3db", "ffaa083c08226571f1c3c1829669435a");
    ((7, 6, 16), "358fddd8bbadcd329127830fb5e1e35c", "c5571ca2958c00b8b4f0cc7f92dd154b", "c967d9bf3dd700a445f202844690e3a5");
    ((3, 13, 2), "35132fc220ab3b4f7121aed80c179683", "8161e15ddf44aa5289bd689255dd4f47", "ca634be50105a7303ba55a49316b5292");
    ((99, 3, 1), "3d5d26ff392563e69bccddf378a410bd", "c0cdb27812698eddd154264dcaa5c10b", "c2c4d9cf8a4daeae15cfeaff6737e961");
  ]

let test_golden_graphs () =
  List.iter
    (fun ((seed, scale, edge_factor), kron, csr, weighted) ->
      let name what = Printf.sprintf "seed %d scale %d ef %d: %s" seed scale edge_factor what in
      let k = Kronecker.generate ~seed ~scale ~edge_factor () in
      let digest g = md5 (g.Csr.row_ptr, g.Csr.col, g.Csr.weight) in
      Alcotest.(check string) (name "kronecker") kron (md5 (k.Kronecker.src, k.Kronecker.dst));
      Alcotest.(check string) (name "csr") csr (digest (Csr.of_kronecker ~alloc:(bump ()) k));
      Alcotest.(check string) (name "weighted csr") weighted
        (digest (Csr.of_kronecker ~weighted:true ~alloc:(bump ()) k)))
    golden_graphs

let test_csr_rejects_bad_vertex () =
  let k = Kronecker.generate ~scale:4 ~edge_factor:2 () in
  k.Kronecker.dst.(3) <- 16;
  Alcotest.check_raises "vertex 16 of 16" (Invalid_argument "Csr.of_kronecker: vertex out of range")
    (fun () -> ignore (Csr.of_kronecker ~alloc:(bump ()) k : Csr.t))

let test_csr_well_formed () =
  let e = env () in
  let g = small_graph e in
  Alcotest.(check int) "row_ptr length" (g.Csr.n + 1) (Array.length g.Csr.row_ptr);
  Alcotest.(check int) "row_ptr total" g.Csr.m g.Csr.row_ptr.(g.Csr.n);
  let mono = ref true in
  for i = 0 to g.Csr.n - 1 do
    if g.Csr.row_ptr.(i) > g.Csr.row_ptr.(i + 1) then mono := false
  done;
  Alcotest.(check bool) "row_ptr monotone" true !mono;
  Array.iter
    (fun v -> if v < 0 || v >= g.Csr.n then Alcotest.fail "col out of range")
    g.Csr.col

let test_bfs_matches_reference () =
  let e = env () in
  let g = small_graph e in
  let levels, result = Bfs.run e g ~source:0 in
  let expected = Bfs.reference g ~source:0 in
  Alcotest.(check (array int)) "levels" expected levels;
  Alcotest.(check bool) "edges counted" true (result.Workload_result.work_items > 0)

let test_sssp_matches_dijkstra () =
  let e = env () in
  let g = weighted_graph e in
  let dist, _ = Sssp.run e g ~source:1 in
  let expected = Sssp.reference g ~source:1 in
  Alcotest.(check (array int)) "distances" expected dist

let test_cc_partition_matches () =
  let e = env () in
  let g = small_graph e in
  let labels, _ = Concomp.run e g in
  let expected = Concomp.reference g in
  (* compare as partitions: same label iff same reference root *)
  let n = g.Csr.n in
  let map = Hashtbl.create 64 in
  let ok = ref true in
  for v = 0 to n - 1 do
    match Hashtbl.find_opt map expected.(v) with
    | None -> Hashtbl.add map expected.(v) labels.(v)
    | Some l -> if l <> labels.(v) then ok := false
  done;
  Alcotest.(check bool) "same partition" true !ok;
  (* label-propagation labels are the min vertex id of the component *)
  Alcotest.(check int) "vertex 0 leads its component" 0 labels.(0)

let test_pagerank_close_to_reference () =
  let e = env () in
  let g = small_graph e in
  let ranks, _ = Pagerank.run e g () in
  let expected = Pagerank.reference g () in
  let max_err = ref 0.0 in
  Array.iteri
    (fun i r -> max_err := Float.max !max_err (abs_float (r -. expected.(i))))
    ranks;
  Alcotest.(check bool) "ranks match" true (!max_err < 1e-9);
  let total = Array.fold_left ( +. ) 0.0 ranks in
  Alcotest.(check bool) "mass conserved-ish" true (total > 0.5 && total <= 1.01)

let test_gups_counts () =
  let e = env ~workers:4 () in
  let params = { Gups.default_params with Gups.table_words = 4096; updates = 4096 } in
  let result = Gups.run e params in
  Alcotest.(check int) "updates" 4096 result.Workload_result.work_items;
  Alcotest.(check bool) "gups positive" true (Gups.gups result > 0.0)

let test_graph500_teps () =
  let e = env () in
  let g = small_graph e in
  let params = { Graph500.default_params with Graph500.roots = 2 } in
  let result = Graph500.run e g params in
  Alcotest.(check bool) "teps positive" true (Graph500.teps result > 0.0)

let test_deterministic_across_systems () =
  (* correctness must not depend on the runtime system *)
  let run sys =
    let inst = Harness.Systems.make sys Harness.Systems.Amd_milan ~n_workers:8 () in
    let e = inst.Harness.Systems.env in
    let g = small_graph e in
    fst (Bfs.run e g ~source:0)
  in
  Alcotest.(check (array int)) "charm = ring" (run Harness.Systems.Charm)
    (run Harness.Systems.Ring)

let prop_bfs_random_graphs =
  QCheck.Test.make ~name:"parallel BFS equals sequential reference" ~count:15
    QCheck.(pair (int_range 4 7) (int_range 1 42))
    (fun (scale, seed) ->
      let e = env ~workers:4 () in
      let kron = Kronecker.generate ~seed ~scale ~edge_factor:4 () in
      let g =
        Csr.of_kronecker
          ~alloc:(fun ~elt_bytes ~count -> e.Exec_env.alloc_shared ~elt_bytes ~count)
          kron
      in
      let levels, _ = Bfs.run e g ~source:0 in
      levels = Bfs.reference g ~source:0)

let suite =
  [
    Alcotest.test_case "kronecker shape" `Quick test_kronecker_shape;
    Alcotest.test_case "kronecker deterministic" `Quick test_kronecker_deterministic;
    Alcotest.test_case "csr well-formed" `Quick test_csr_well_formed;
    Alcotest.test_case "bfs matches reference" `Quick test_bfs_matches_reference;
    Alcotest.test_case "sssp matches dijkstra" `Quick test_sssp_matches_dijkstra;
    Alcotest.test_case "cc matches union-find" `Quick test_cc_partition_matches;
    Alcotest.test_case "pagerank matches reference" `Quick test_pagerank_close_to_reference;
    Alcotest.test_case "gups counts updates" `Quick test_gups_counts;
    Alcotest.test_case "graph500 teps" `Quick test_graph500_teps;
    Alcotest.test_case "deterministic across systems" `Quick test_deterministic_across_systems;
    QCheck_alcotest.to_alcotest prop_bfs_random_graphs;
    Alcotest.test_case "golden graphs" `Quick test_golden_graphs;
    Alcotest.test_case "csr rejects a bad vertex" `Quick test_csr_rejects_bad_vertex;
  ]
