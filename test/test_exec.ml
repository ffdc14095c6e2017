(* Morsel-driven operator tests (lib/olap/exec.ml). *)

let env () =
  let inst =
    Harness.Systems.make Harness.Systems.Charm Harness.Systems.Amd_milan
      ~n_workers:4 ()
  in
  inst.Harness.Systems.env

let in_task env_ f =
  let out = ref None in
  ignore (Workloads.Exec_env.run env_ (fun ctx -> out := Some (f ctx)) : float);
  Option.get !out

let test_hash_join_multimap () =
  let e = env () in
  let alloc ~elt_bytes ~count = e.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
  let payloads =
    in_task e (fun ctx ->
        let hj = Olap.Exec.Hash_join.create ~alloc ~expected:16 in
        Olap.Exec.Hash_join.insert ctx hj ~key:7 ~payload:1;
        Olap.Exec.Hash_join.insert ctx hj ~key:7 ~payload:2;
        Olap.Exec.Hash_join.insert ctx hj ~key:9 ~payload:3;
        ( List.sort compare (Olap.Exec.Hash_join.probe ctx hj ~key:7),
          Olap.Exec.Hash_join.probe ctx hj ~key:404,
          Olap.Exec.Hash_join.mem ctx hj ~key:9,
          Olap.Exec.Hash_join.size hj ))
  in
  let sevens, missing, has9, size = payloads in
  Alcotest.(check (list int)) "multimap" [ 1; 2 ] sevens;
  Alcotest.(check (list int)) "missing key" [] missing;
  Alcotest.(check bool) "mem" true has9;
  Alcotest.(check int) "entries" 3 size

let test_hash_agg_accumulates () =
  let e = env () in
  let alloc ~elt_bytes ~count = e.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
  let acc =
    in_task e (fun ctx ->
        let agg = Olap.Exec.Hash_agg.create ~alloc ~expected:8 ~width:2 in
        let add key slot v =
          let a = Olap.Exec.Hash_agg.row ctx agg ~key in
          a.(slot) <- a.(slot) +. v
        in
        add 1 0 2.0;
        add 1 1 1.0;
        add 1 0 3.0;
        add 1 1 1.0;
        add 2 0 10.0;
        ( Olap.Exec.Hash_agg.get agg ~key:1,
          Olap.Exec.Hash_agg.groups agg,
          Olap.Exec.Hash_agg.fold agg (fun _ a s -> s +. a.(0)) 0.0 ))
  in
  let one, groups, total = acc in
  (match one with
  | Some a ->
      Alcotest.(check (float 0.001)) "sum slot 0" 5.0 a.(0);
      Alcotest.(check (float 0.001)) "count slot 1" 2.0 a.(1)
  | None -> Alcotest.fail "group missing");
  Alcotest.(check int) "groups" 2 groups;
  Alcotest.(check (float 0.001)) "fold" 15.0 total

let test_hash_agg_bad_slot () =
  let e = env () in
  let alloc ~elt_bytes ~count = e.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
  let raised =
    in_task e (fun ctx ->
        let agg = Olap.Exec.Hash_agg.create ~alloc ~expected:8 ~width:1 in
        (* a group has exactly [width] slots *)
        let a = Olap.Exec.Hash_agg.row ctx agg ~key:1 in
        try
          a.(1) <- a.(1) +. 1.0;
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "slot out of range" true raised

let test_parallel_scan_covers_all_rows () =
  let e = env () in
  let alloc ~elt_bytes ~count = e.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
  let col = Olap.Column.ints ~alloc (Array.init 1000 (fun i -> i)) in
  let table = Olap.Table.v ~name:"t" ~rows:1000 [ ("x", col) ] in
  let hits = Array.make 1000 0 in
  ignore
    (Workloads.Exec_env.run e (fun ctx ->
         Olap.Exec.parallel_scan ctx table ~columns:[ "x" ] ~morsel:64
           (fun _ctx' row -> hits.(row) <- hits.(row) + 1))
      : float);
  Alcotest.(check bool) "every row exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_charge_sort_advances_time () =
  let e = env () in
  let before_after =
    in_task e (fun ctx ->
        let t0 = Engine.Sched.Ctx.now ctx in
        Olap.Exec.charge_sort ctx ~rows:100_000;
        Engine.Sched.Ctx.now ctx -. t0)
  in
  Alcotest.(check bool) "n log n charged" true (before_after > 100_000.0)

let suite =
  [
    Alcotest.test_case "hash join multimap" `Quick test_hash_join_multimap;
    Alcotest.test_case "hash agg accumulates" `Quick test_hash_agg_accumulates;
    Alcotest.test_case "hash agg bad slot" `Quick test_hash_agg_bad_slot;
    Alcotest.test_case "parallel scan coverage" `Quick test_parallel_scan_covers_all_rows;
    Alcotest.test_case "charge_sort advances time" `Quick test_charge_sort_advances_time;
  ]
