type t = {
  sf : float;
  region : Table.t;
  nation : Table.t;
  supplier : Table.t;
  customer : Table.t;
  part : Table.t;
  partsupp : Table.t;
  orders : Table.t;
  lineitem : Table.t;
}

let num_segments = 5
let num_priorities = 5
let num_shipmodes = 7
let num_types = 150
let num_brands = 25
let num_containers = 40
let num_return_flags = 3
let days_total = 2556

let day_of ~year =
  if year < 1992 || year > 1999 then invalid_arg "Tpch_data.day_of: year out of range";
  (year - 1992) * 365  (* leap days ignored; predicates only need ordering *)

(* Every value is drawn into columns whose regions are left unplaced;
   [place] then allocates them all.  So building a dataset on one machine
   and placing a built one on another allocate in one order by
   construction. *)
let unplaced ~elt_bytes ~count:_ =
  { Chipsim.Simmem.base = 0; length_bytes = 0; elt_bytes; region_policy = First_touch }

let place ~alloc t =
  let region = Table.place ~alloc t.region in
  let nation = Table.place ~alloc t.nation in
  let supplier = Table.place ~alloc t.supplier in
  let customer = Table.place ~alloc t.customer in
  let part = Table.place ~alloc t.part in
  let partsupp = Table.place ~alloc t.partsupp in
  let orders = Table.place ~alloc t.orders in
  let lineitem = Table.place ~alloc t.lineitem in
  { sf = t.sf; region; nation; supplier; customer; part; partsupp; orders; lineitem }

let draw ~seed ~sf =
  let alloc = unplaced in
  let rng = Chipsim.Rng.create seed in
  let scale base = max 1 (int_of_float (float_of_int base *. sf)) in
  let n_supplier = scale 10_000 in
  let n_customer = scale 150_000 in
  let n_part = scale 200_000 in
  let n_partsupp = 4 * n_part in
  let n_orders = scale 1_500_000 in
  let ri n = Chipsim.Rng.int rng n in
  let rf bound = Chipsim.Rng.float rng bound in
  (* A table's columns are built last first, the order every recorded
     dataset drew its values in ({!Table.place} allocates their regions
     in it too; a list literal's evaluation order is unspecified, so it
     is spelled out). *)
  let columns specs =
    List.fold_right
      (fun (name, make) acc ->
        let col = make () in
        (name, col) :: acc)
      specs []
  in

  (* region / nation: fixed tiny dimension tables *)
  let region =
    Table.v ~name:"region" ~rows:5
      (columns
         [
           ("r_regionkey", fun () -> Column.ints ~alloc (Array.init 5 Fun.id));
           ("r_name", fun () -> Column.ints ~alloc (Array.init 5 Fun.id));
         ])
  in
  let nation_region = Array.init 25 (fun i -> i mod 5) in
  let nation =
    Table.v ~name:"nation" ~rows:25
      (columns
         [
           ("n_nationkey", fun () -> Column.ints ~alloc (Array.init 25 Fun.id));
           ("n_regionkey", fun () -> Column.ints ~alloc nation_region);
           ("n_name", fun () -> Column.ints ~alloc (Array.init 25 Fun.id));
         ])
  in

  let supplier =
    Table.v ~name:"supplier" ~rows:n_supplier
      (columns
         [
           ("s_suppkey", fun () -> Column.ints ~alloc (Array.init n_supplier Fun.id));
           ("s_nationkey", fun () -> Column.ints ~alloc (Array.init n_supplier (fun _ -> ri 25)));
           ("s_acctbal", fun () -> Column.floats ~alloc (Array.init n_supplier (fun _ -> rf 11_000.0 -. 1_000.0)));
         ])
  in

  let customer =
    Table.v ~name:"customer" ~rows:n_customer
      (columns
         [
           ("c_custkey", fun () -> Column.ints ~alloc (Array.init n_customer Fun.id));
           ("c_nationkey", fun () -> Column.ints ~alloc (Array.init n_customer (fun _ -> ri 25)));
           ("c_mktsegment", fun () -> Column.ints ~alloc (Array.init n_customer (fun _ -> ri num_segments)));
           ("c_acctbal", fun () -> Column.floats ~alloc (Array.init n_customer (fun _ -> rf 11_000.0 -. 1_000.0)));
         ])
  in

  let part =
    Table.v ~name:"part" ~rows:n_part
      (columns
         [
           ("p_partkey", fun () -> Column.ints ~alloc (Array.init n_part Fun.id));
           ("p_type", fun () -> Column.ints ~alloc (Array.init n_part (fun _ -> ri num_types)));
           ("p_size", fun () -> Column.ints ~alloc (Array.init n_part (fun _ -> 1 + ri 50)));
           ("p_brand", fun () -> Column.ints ~alloc (Array.init n_part (fun _ -> ri num_brands)));
           ("p_container", fun () -> Column.ints ~alloc (Array.init n_part (fun _ -> ri num_containers)));
           ("p_retailprice", fun () -> Column.floats ~alloc (Array.init n_part (fun _ -> 900.0 +. rf 1_200.0)));
         ])
  in

  let ps_part = Array.init n_partsupp (fun i -> i / 4) in
  let partsupp =
    Table.v ~name:"partsupp" ~rows:n_partsupp
      (columns
         [
           ("ps_partkey", fun () -> Column.ints ~alloc ps_part);
           ("ps_suppkey", fun () -> Column.ints ~alloc (Array.init n_partsupp (fun _ -> ri n_supplier)));
           ("ps_supplycost", fun () -> Column.floats ~alloc (Array.init n_partsupp (fun _ -> 1.0 +. rf 1_000.0)));
           ("ps_availqty", fun () -> Column.ints ~alloc (Array.init n_partsupp (fun _ -> 1 + ri 9_999)));
         ])
  in

  let o_custkey = Array.init n_orders (fun _ -> ri n_customer) in
  let o_orderdate = Array.init n_orders (fun _ -> ri days_total) in
  let orders =
    Table.v ~name:"orders" ~rows:n_orders
      (columns
         [
           ("o_orderkey", fun () -> Column.ints ~alloc (Array.init n_orders Fun.id));
           ("o_custkey", fun () -> Column.ints ~alloc o_custkey);
           ("o_orderdate", fun () -> Column.ints ~alloc o_orderdate);
           ("o_orderpriority", fun () -> Column.ints ~alloc (Array.init n_orders (fun _ -> ri num_priorities)));
           ("o_shippriority", fun () -> Column.ints ~alloc (Array.make n_orders 0));
           ("o_totalprice", fun () -> Column.floats ~alloc (Array.init n_orders (fun _ -> 1_000.0 +. rf 400_000.0)));
           ("o_orderstatus", fun () -> Column.ints ~alloc (Array.init n_orders (fun _ -> ri 3)));
         ])
  in

  (* lineitem: 1..7 lines per order (avg ~4), drawn order by order *)
  let lines_of = Array.init n_orders (fun _ -> 1 + ri 7) in
  let n_li = Array.fold_left ( + ) 0 lines_of in
  let order_of = Array.make n_li 0 and line_no = Array.make n_li 0 in
  let i = ref 0 in
  Array.iteri
    (fun o k ->
      for l = 0 to k - 1 do
        order_of.(!i) <- o;
        line_no.(!i) <- l;
        incr i
      done)
    lines_of;
  let l_quantity = Array.init n_li (fun _ -> 1.0 +. float_of_int (ri 50)) in
  let l_extendedprice = Array.init n_li (fun _ -> 900.0 +. rf 100_000.0) in
  let l_discount = Array.init n_li (fun _ -> float_of_int (ri 11) /. 100.0) in
  let l_tax = Array.init n_li (fun _ -> float_of_int (ri 9) /. 100.0) in
  let l_shipdate = Array.init n_li (fun i -> min (days_total - 1) (o_orderdate.(order_of.(i)) + 1 + ri 121)) in
  let l_commitdate = Array.init n_li (fun i -> min (days_total - 1) (o_orderdate.(order_of.(i)) + 30 + ri 61)) in
  let l_receiptdate = Array.init n_li (fun i -> min (days_total - 1) (l_shipdate.(i) + 1 + ri 30)) in
  let lineitem =
    Table.v ~name:"lineitem" ~rows:n_li
      (columns
         [
           ("l_orderkey", fun () -> Column.ints ~alloc order_of);
           ("l_linenumber", fun () -> Column.ints ~alloc line_no);
           ("l_partkey", fun () -> Column.ints ~alloc (Array.init n_li (fun _ -> ri n_part)));
           ("l_suppkey", fun () -> Column.ints ~alloc (Array.init n_li (fun _ -> ri n_supplier)));
           ("l_quantity", fun () -> Column.floats ~alloc l_quantity);
           ("l_extendedprice", fun () -> Column.floats ~alloc l_extendedprice);
           ("l_discount", fun () -> Column.floats ~alloc l_discount);
           ("l_tax", fun () -> Column.floats ~alloc l_tax);
           ("l_returnflag", fun () -> Column.ints ~alloc (Array.init n_li (fun _ -> ri num_return_flags)));
           ("l_linestatus", fun () -> Column.ints ~alloc (Array.init n_li (fun _ -> ri 2)));
           ("l_shipdate", fun () -> Column.ints ~alloc l_shipdate);
           ("l_commitdate", fun () -> Column.ints ~alloc l_commitdate);
           ("l_receiptdate", fun () -> Column.ints ~alloc l_receiptdate);
           ("l_shipmode", fun () -> Column.ints ~alloc (Array.init n_li (fun _ -> ri num_shipmodes)));
           ("l_shipinstruct", fun () -> Column.ints ~alloc (Array.init n_li (fun _ -> ri 4)));
         ])
  in
  { sf; region; nation; supplier; customer; part; partsupp; orders; lineitem }

let generate ~alloc ?(seed = 1234) ~sf () =
  if sf <= 0.0 then invalid_arg "Tpch_data.generate: sf must be positive";
  place ~alloc (draw ~seed ~sf)

let total_rows t =
  Table.rows t.region + Table.rows t.nation + Table.rows t.supplier
  + Table.rows t.customer + Table.rows t.part + Table.rows t.partsupp
  + Table.rows t.orders + Table.rows t.lineitem
