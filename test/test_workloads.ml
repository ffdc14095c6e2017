open Workloads

(* The merge order the kernels had when each chunk consed its discoveries
   and the chunk lists were concatenated (latest-finished chunk first,
   each newest first), then deduplicated keeping first occurrences.
   [chunks] lists each chunk's entries in push order, in finish order. *)
let cons_list_order ~vertex chunks =
  let buffers = List.fold_left (fun acc chunk -> List.rev chunk :: acc) [] chunks in
  let seen = Hashtbl.create 64 in
  List.concat buffers
  |> List.map vertex
  |> List.filter (fun v ->
         if Hashtbl.mem seen v then false
         else begin
           Hashtbl.add seen v ();
           true
         end)

let merge f chunks =
  List.iter
    (fun chunk ->
      Frontier.finish f
        (List.fold_left (fun head e -> Frontier.push f ~head e) Frontier.empty chunk))
    chunks;
  Array.to_list (Frontier.next f)

let test_merge_order () =
  (* vertices: each pushed once per level, some chunks empty *)
  let f = Frontier.of_vertices 100 in
  List.iter
    (fun chunks ->
      Alcotest.(check (list int)) "vertex frontier" (cons_list_order ~vertex:Fun.id chunks)
        (merge f chunks))
    [ [ [ 3; 1; 4 ]; []; [ 5; 9 ]; [ 2 ]; [ 6; 8; 7 ] ]; [ [ 0 ] ]; []; [ []; [ 99; 98 ] ] ];
  (* edges: several edges reach one vertex, within and across chunks;
     more chunks than the head array starts with *)
  let col = Array.init 400 (fun e -> (e * 7) mod 23) in
  let f = Frontier.of_edges ~col ~vertices:23 in
  List.iter
    (fun chunks ->
      Alcotest.(check (list int)) "edge frontier"
        (cons_list_order ~vertex:(fun e -> col.(e)) chunks)
        (merge f chunks))
    [
      [ [ 0; 23; 46 ]; [ 1; 2 ]; []; [ 69; 3 ] ];
      List.init 100 (fun c -> [ 4 * c; (4 * c) + 1; (4 * c) + 3 ]);
      [ [ 5 ] ];
    ]

(* Recorded before the frontier merge stopped consing (cons lists,
   [List.concat], a [Hashtbl] dedup): the merge order decides which
   vertices the next level's chunks read, so any other order moves the
   makespan, the fill classes or the steals. *)
let test_pinned_runs () =
  List.iter
    (fun (name, kernel, (makespan, accesses, fills, steals, invalidations)) ->
      let inst =
        Harness.Systems.make Harness.Systems.Charm Harness.Systems.Amd_milan ~n_workers:32 ()
      in
      let env = inst.Harness.Systems.env and machine = inst.Harness.Systems.machine in
      let alloc ~elt_bytes ~count = env.Exec_env.alloc_shared ~elt_bytes ~count in
      let kron = Kronecker.generate ~seed:7 ~scale:10 ~edge_factor:16 () in
      let r =
        match kernel with
        | `Bfs -> snd (Bfs.run env (Csr.of_kronecker ~alloc ~seed:7 kron) ~source:1)
        | `Sssp ->
            snd (Sssp.run env (Csr.of_kronecker ~alloc ~weighted:true ~seed:7 kron) ~source:1)
      in
      let fc = Chipsim.Pmu.fill_classes (Chipsim.Machine.pmu machine) in
      let report = Harness.Systems.report inst in
      Alcotest.(check string) (name ^ " makespan") makespan
        (Printf.sprintf "%h" r.Workload_result.makespan_ns);
      Alcotest.(check int) (name ^ " accesses") accesses (Chipsim.Machine.accesses machine);
      Alcotest.(check (list int)) (name ^ " fill classes") fills
        Chipsim.Pmu.[ fc.fc_local; fc.fc_remote_chiplet; fc.fc_remote_numa; fc.fc_dram ];
      Alcotest.(check int) (name ^ " steals") steals report.Engine.Stats.tasks_stolen;
      Alcotest.(check int) (name ^ " invalidations") invalidations
        report.Engine.Stats.accesses.Engine.Stats.invalidations)
    [
      ("bfs", `Bfs, ("0x1.6721cbdebe047p+17", 39468, [ 3693; 1889; 0; 4352 ], 18, 533));
      ("sssp", `Sssp, ("0x1.6fda9b1d8249p+17", 82284, [ 7773; 6504; 0; 4352 ], 37, 2290));
    ]

(* A link is 32 bits: an entry past a frontier's own, 2^31 and beyond
   included, is refused at its push rather than stored truncated.  (The
   refusal of a frontier over more than 2^31 entries is not exercised:
   were it broken, the test would allocate 8 GB.) *)
let test_entry_bound () =
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  let f = Frontier.of_vertices 8 in
  refused "entry 2^31" (fun () -> ignore (Frontier.push f ~head:Frontier.empty (1 lsl 31)));
  refused "entry 2^32 + 1" (fun () -> ignore (Frontier.push f ~head:Frontier.empty ((1 lsl 32) + 1)));
  refused "entry 8 of 8" (fun () -> ignore (Frontier.push f ~head:Frontier.empty 8));
  Alcotest.(check (list int)) "the frontier still works" [ 7; 2 ]
    (merge f [ [ 2; 7 ] ])

let frontier_suite =
  [
    Alcotest.test_case "merge keeps the cons-list order" `Quick test_merge_order;
    Alcotest.test_case "entries beyond 2^31 - 1 refused" `Quick test_entry_bound;
    Alcotest.test_case "bfs and sssp runs pinned" `Quick test_pinned_runs;
  ]

let () =
  Alcotest.run "workloads"
    [
      ("baselines", Test_baselines.suite);
      ("graph", Test_graph.suite);
      ("frontier", frontier_suite);
      ("analytics", Test_analytics.suite);
      ("streamcluster", Test_streamcluster.suite);
    ]
