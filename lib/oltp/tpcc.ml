module Sched = Engine.Sched
module Exec_env = Workloads.Exec_env
module Workload_result = Workloads.Workload_result

type params = {
  warehouses : int;
  districts_per_warehouse : int;
  customers_per_district : int;
  items : int;
  txns : int;
  seed : int;
}

let default_params =
  {
    warehouses = 50;
    districts_per_warehouse = 10;
    customers_per_district = 120;
    items = 4_000;
    txns = 10_000;
    seed = 77;
  }

type outcome = {
  result : Workload_result.t;
  commits : int;
  commits_per_second : float;
  new_orders : int;
}

type db = {
  warehouse : Storage.table;
  district : Storage.table;
  customer : Storage.table;
  stock : Storage.table;
  item : Storage.table;
  order_line : Storage.table;  (* ring buffer of recent order lines *)
}

let order_line_seg = 256  (* recent order-line slots per warehouse *)

let make_db ~alloc p =
  {
    warehouse = Storage.create_table ~alloc ~name:"warehouse" ~rows:p.warehouses ~payload_words:8;
    district =
      Storage.create_table ~alloc ~name:"district"
        ~rows:(p.warehouses * p.districts_per_warehouse)
        ~payload_words:8;
    customer =
      Storage.create_table ~alloc ~name:"customer"
        ~rows:(p.warehouses * p.districts_per_warehouse * p.customers_per_district)
        ~payload_words:16;
    stock =
      Storage.create_table ~alloc ~name:"stock" ~rows:(p.warehouses * p.items)
        ~payload_words:8;
    item = Storage.create_table ~alloc ~name:"item" ~rows:p.items ~payload_words:8;
    order_line =
      Storage.create_table ~alloc ~name:"order_line"
        ~rows:(p.warehouses * order_line_seg) ~payload_words:8;
  }

let district_row p ~w ~d = (w * p.districts_per_warehouse) + d
let customer_row p ~w ~d ~c =
  (((w * p.districts_per_warehouse) + d) * p.customers_per_district) + c
let stock_row p ~w ~i = (w * p.items) + i

(* order lines append into the home warehouse's ring segment, as TPC-C
   inserts are per-district *)
let new_order ctx db p rng engine ol_cursor ~home =
  let w = home in
  let d = Engine.Rng.int rng p.districts_per_warehouse in
  let c = Engine.Rng.int rng p.customers_per_district in
  ignore (Storage.read_record ctx db.warehouse w);
  (* district next_o_id is a serialization hot spot *)
  let next = Storage.read_field ctx db.district ~row:(district_row p ~w ~d) ~word:1 in
  Storage.write_field ctx db.district ~row:(district_row p ~w ~d) ~word:1 (next + 1);
  ignore (Storage.read_record ctx db.customer (customer_row p ~w ~d ~c));
  let ol_cnt = 5 + Engine.Rng.int rng 11 in
  for _ = 1 to ol_cnt do
    let i = Engine.Rng.int rng p.items in
    ignore (Storage.read_record ctx db.item i);
    let qty = Storage.read_field ctx db.stock ~row:(stock_row p ~w ~i) ~word:0 in
    Storage.write_field ctx db.stock ~row:(stock_row p ~w ~i) ~word:0
      (if qty > 10 then qty - 1 else qty + 91);
    let slot = (home * order_line_seg) + (!ol_cursor mod order_line_seg) in
    incr ol_cursor;
    Storage.write_record ctx db.order_line slot i
  done;
  Txn.commit engine ctx

let payment ctx db p rng engine ~home =
  let w = home in
  let d = Engine.Rng.int rng p.districts_per_warehouse in
  let c = Engine.Rng.int rng p.customers_per_district in
  let amount = 1 + Engine.Rng.int rng 5000 in
  let wv = Storage.read_field ctx db.warehouse ~row:w ~word:1 in
  Storage.write_field ctx db.warehouse ~row:w ~word:1 (wv + amount);
  let drow = district_row p ~w ~d in
  let dv = Storage.read_field ctx db.district ~row:drow ~word:2 in
  Storage.write_field ctx db.district ~row:drow ~word:2 (dv + amount);
  let crow = customer_row p ~w ~d ~c in
  let bal = Storage.read_field ctx db.customer ~row:crow ~word:1 in
  Storage.write_field ctx db.customer ~row:crow ~word:1 (bal - amount);
  Txn.commit engine ctx

let delivery ctx db p rng engine ~home =
  let w = home in
  for d = 0 to p.districts_per_warehouse - 1 do
    let c = Engine.Rng.int rng p.customers_per_district in
    let crow = customer_row p ~w ~d ~c in
    let bal = Storage.read_field ctx db.customer ~row:crow ~word:1 in
    Storage.write_field ctx db.customer ~row:crow ~word:1 (bal + 100)
  done;
  Txn.commit engine ctx

let order_status ctx db p rng engine ~home =
  let w = home in
  let d = Engine.Rng.int rng p.districts_per_warehouse in
  let c = Engine.Rng.int rng p.customers_per_district in
  ignore (Storage.read_record ctx db.customer (customer_row p ~w ~d ~c));
  for k = 0 to 9 do
    ignore
      (Storage.read_record ctx db.order_line
         ((w * order_line_seg) + ((c + k) mod order_line_seg)))
  done;
  Txn.commit engine ctx

let stock_level ctx db p rng engine ~home =
  let w = home in
  let d = Engine.Rng.int rng p.districts_per_warehouse in
  ignore (Storage.read_record ctx db.district (district_row p ~w ~d));
  for k = 0 to 19 do
    let slot = (w * order_line_seg) + ((d + k) mod order_line_seg) in
    let i = Storage.read_record ctx db.order_line slot in
    let i = if i >= 0 && i < p.items then i else 0 in
    ignore (Storage.read_record ctx db.stock (stock_row p ~w ~i))
  done;
  Txn.commit engine ctx

let run env p =
  let alloc = env.Exec_env.alloc_shared in
  let db = make_db ~alloc p in
  let engine = Txn.create ~alloc () in
  let workers = Exec_env.n_workers env in
  let per_worker = (p.txns + workers - 1) / workers in
  let new_orders = ref 0 in
  let makespan =
    Exec_env.run env (fun ctx ->
        Engine.Par.all_do ctx (fun ctx' wkr ->
            let rng = Engine.Rng.create (p.seed + wkr) in
            (* each worker terminal owns a home warehouse (paper: "always
               accesses the home warehouse") *)
            let home = wkr mod p.warehouses in
            let ol_cursor = ref 0 in
            for i = 0 to per_worker - 1 do
              let dice = Engine.Rng.int rng 100 in
              if dice < 45 then begin
                new_order ctx' db p rng engine ol_cursor ~home;
                incr new_orders
              end
              else if dice < 88 then payment ctx' db p rng engine ~home
              else if dice < 92 then delivery ctx' db p rng engine ~home
              else if dice < 96 then order_status ctx' db p rng engine ~home
              else stock_level ctx' db p rng engine ~home;
              if i land 15 = 15 then Sched.Ctx.maybe_yield ctx'
            done))
  in
  {
    result =
      Workload_result.v ~label:"tpcc" ~makespan_ns:makespan
        ~work_items:(per_worker * workers);
    commits = Txn.commits engine;
    commits_per_second = Txn.commits_per_second engine ~makespan_ns:makespan;
    new_orders = !new_orders;
  }
