let env sys ~workers =
  let inst = Harness.Systems.make sys Harness.Systems.Amd_milan ~n_workers:workers () in
  inst.Harness.Systems.env

let dataset env_ =
  Olap.Tpch_data.generate
    ~alloc:(fun ~elt_bytes ~count ->
      env_.Workloads.Exec_env.alloc_shared ~elt_bytes ~count)
    ~sf:0.002 ~seed:11 ()

let test_cardinalities () =
  let e = env Harness.Systems.Charm ~workers:4 in
  let d = dataset e in
  Alcotest.(check int) "regions" 5 (Olap.Table.rows d.Olap.Tpch_data.region);
  Alcotest.(check int) "nations" 25 (Olap.Table.rows d.Olap.Tpch_data.nation);
  Alcotest.(check int) "suppliers" 20 (Olap.Table.rows d.Olap.Tpch_data.supplier);
  Alcotest.(check int) "customers" 300 (Olap.Table.rows d.Olap.Tpch_data.customer);
  Alcotest.(check int) "orders" 3000 (Olap.Table.rows d.Olap.Tpch_data.orders);
  let li = Olap.Table.rows d.Olap.Tpch_data.lineitem in
  Alcotest.(check bool) "lineitem fanout in [1,7] per order" true
    (li >= 3000 && li <= 7 * 3000);
  (* partsupp is 4 rows per part *)
  Alcotest.(check int) "partsupp" (4 * Olap.Table.rows d.Olap.Tpch_data.part)
    (Olap.Table.rows d.Olap.Tpch_data.partsupp)

(* Every column of [Tpch_data.generate ~sf:0.002] for two seeds: its
   data and its simulated base address under a bump allocator, which pins
   the draw order and the allocation order.  One digest per table. *)
let tpch_columns =
  [
    ("region", [ "r_regionkey"; "r_name" ]);
    ("nation", [ "n_nationkey"; "n_regionkey"; "n_name" ]);
    ("supplier", [ "s_suppkey"; "s_nationkey"; "s_acctbal" ]);
    ("customer", [ "c_custkey"; "c_nationkey"; "c_mktsegment"; "c_acctbal" ]);
    ("part", [ "p_partkey"; "p_type"; "p_size"; "p_brand"; "p_container"; "p_retailprice" ]);
    ("partsupp", [ "ps_partkey"; "ps_suppkey"; "ps_supplycost"; "ps_availqty" ]);
    ( "orders",
      [ "o_orderkey"; "o_custkey"; "o_orderdate"; "o_orderpriority"; "o_shippriority";
        "o_totalprice"; "o_orderstatus" ] );
    ( "lineitem",
      [ "l_orderkey"; "l_linenumber"; "l_partkey"; "l_suppkey"; "l_quantity"; "l_extendedprice";
        "l_discount"; "l_tax"; "l_returnflag"; "l_linestatus"; "l_shipdate"; "l_commitdate";
        "l_receiptdate"; "l_shipmode"; "l_shipinstruct" ] );
  ]

let golden_tpch =
  [
    ( 1234,
      [ "3dd9cbd53156aca67758f467adc19920"; "232fed42f05a93f39e657646d34e5039";
        "a0e505b19242cf04c731d6451308524f"; "0c39128b83f2d0ee541c4a0c44ca5beb";
        "e7748b27c765c6c524a0e3791a81fa2f"; "521f6bb6723eca67fae8c898606df6e8";
        "7478425c2564e11a774333a815b4a236"; "adbc18ac8f2d8c791a0299e0d8b0371a" ] );
    ( 7,
      [ "3dd9cbd53156aca67758f467adc19920"; "232fed42f05a93f39e657646d34e5039";
        "bbbc51bf14495d15c5715405f15dd5cd"; "a06540281bdc44da2c7d63bf0ee842b7";
        "de3feaf041817952771aba237d21a374"; "078b67103d58ef4ea832d8cad460e331";
        "bb24cec1a1c03b34a7ff01e3a6154d00"; "641064d46a51fc9ce75a0617ae7b0d98" ] );
  ]

let test_golden_tpch () =
  let md5 v = Digest.to_hex (Digest.string (Marshal.to_string v [])) in
  List.iter
    (fun (seed, digests) ->
      let next = ref 0 in
      let alloc ~elt_bytes ~count =
        let base = !next in
        next := base + (elt_bytes * count);
        { Chipsim.Simmem.base; length_bytes = elt_bytes * count; elt_bytes; region_policy = First_touch }
      in
      let d = Olap.Tpch_data.generate ~alloc ~seed ~sf:0.002 () in
      let tables =
        Olap.Tpch_data.[ d.region; d.nation; d.supplier; d.customer; d.part; d.partsupp; d.orders; d.lineitem ]
      in
      List.iter2
        (fun ((name, cols), table) want ->
          let col c =
            match Olap.Table.col table c with
            | Olap.Column.Ints { data; sim } -> md5 (data, sim.Chipsim.Simmem.base)
            | Olap.Column.Floats { data; sim } -> md5 (data, sim.Chipsim.Simmem.base)
          in
          Alcotest.(check string) (Printf.sprintf "seed %d: %s" seed name) want (md5 (List.map col cols)))
        (List.combine tpch_columns tables) digests)
    golden_tpch

let test_date_encoding () =
  Alcotest.(check int) "1992 epoch" 0 (Olap.Tpch_data.day_of ~year:1992);
  Alcotest.(check int) "1995" (3 * 365) (Olap.Tpch_data.day_of ~year:1995);
  try
    ignore (Olap.Tpch_data.day_of ~year:1980);
    Alcotest.fail "accepted bad year"
  with Invalid_argument _ -> ()

let test_q6_matches_naive () =
  let e = env Harness.Systems.Charm ~workers:4 in
  let d = dataset e in
  let result, _ = Olap.Tpch_queries.execute e d 6 in
  (* naive sequential recomputation *)
  let li = d.Olap.Tpch_data.lineitem in
  let ship = Olap.Table.ints li "l_shipdate" in
  let qty = Olap.Table.floats li "l_quantity" in
  let price = Olap.Table.floats li "l_extendedprice" in
  let disc = Olap.Table.floats li "l_discount" in
  let lo = Olap.Tpch_data.day_of ~year:1994 and hi = Olap.Tpch_data.day_of ~year:1995 in
  let expected = ref 0.0 in
  for r = 0 to Olap.Table.rows li - 1 do
    if
      ship.(r) >= lo && ship.(r) < hi
      && disc.(r) >= 0.05 && disc.(r) <= 0.07
      && qty.(r) < 24.0
    then expected := !expected +. (price.(r) *. disc.(r))
  done;
  Alcotest.(check (float 0.001)) "q6 revenue" !expected result.Olap.Tpch_queries.checksum

let test_q1_group_count () =
  let e = env Harness.Systems.Charm ~workers:4 in
  let d = dataset e in
  let result, _ = Olap.Tpch_queries.execute e d 1 in
  (* 3 return flags x 2 line statuses *)
  Alcotest.(check int) "six groups" 6 result.Olap.Tpch_queries.rows_out

let test_all_queries_run () =
  let e = env Harness.Systems.Charm ~workers:8 in
  let d = dataset e in
  List.iter
    (fun q ->
      let result, makespan = Olap.Tpch_queries.execute e d q in
      if makespan <= 0.0 then Alcotest.failf "q%d zero makespan" q;
      if Float.is_nan result.Olap.Tpch_queries.checksum then
        Alcotest.failf "q%d produced NaN" q)
    Olap.Tpch_queries.query_numbers

let test_checksums_system_independent () =
  let run sys =
    let e = env sys ~workers:8 in
    let d = dataset e in
    List.map
      (fun q -> (fst (Olap.Tpch_queries.execute e d q)).Olap.Tpch_queries.checksum)
      [ 1; 3; 5; 6; 9; 13; 18; 22 ]
  in
  let a = run Harness.Systems.Charm and b = run Harness.Systems.Os_default in
  List.iter2 (fun x y -> Alcotest.(check (float 0.0001)) "equal checksum" x y) a b

let test_bad_query_number () =
  let e = env Harness.Systems.Charm ~workers:2 in
  let d = dataset e in
  try
    ignore (Olap.Tpch_queries.execute e d 23);
    Alcotest.fail "accepted query 23"
  with Invalid_argument _ -> ()

let test_table_validation () =
  let e = env Harness.Systems.Charm ~workers:2 in
  let alloc ~elt_bytes ~count = e.Workloads.Exec_env.alloc_shared ~elt_bytes ~count in
  try
    ignore
      (Olap.Table.v ~name:"bad" ~rows:2
         [ ("a", Olap.Column.ints ~alloc [| 1 |]) ]);
    Alcotest.fail "accepted mismatched column"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "cardinalities" `Quick test_cardinalities;
    Alcotest.test_case "date encoding" `Quick test_date_encoding;
    Alcotest.test_case "q6 matches naive scan" `Quick test_q6_matches_naive;
    Alcotest.test_case "q1 group count" `Quick test_q1_group_count;
    Alcotest.test_case "all 22 queries run" `Slow test_all_queries_run;
    Alcotest.test_case "checksums system-independent" `Slow test_checksums_system_independent;
    Alcotest.test_case "bad query number" `Quick test_bad_query_number;
    Alcotest.test_case "table validation" `Quick test_table_validation;
    Alcotest.test_case "golden columns" `Quick test_golden_tpch;
  ]
