module Sched = Engine.Sched

type table = {
  name : string;
  rows : int;
  payload_words : int;
  sim_data : Chipsim.Simmem.region;
  sim_locks : Chipsim.Simmem.region;
  values : int array;
}

let create_table ~alloc ~name ~rows ~payload_words =
  if rows <= 0 || payload_words <= 0 then
    invalid_arg "Storage.create_table: rows and payload_words must be positive";
  {
    name;
    rows;
    payload_words;
    sim_data = alloc ~elt_bytes:8 ~count:(rows * payload_words);
    sim_locks = alloc ~elt_bytes:8 ~count:rows;
    values = Array.make (rows * payload_words) 0;
  }

let check t row word =
  if row < 0 || row >= t.rows then
    invalid_arg (Printf.sprintf "Storage %s: row %d out of range" t.name row);
  if word < 0 || word >= t.payload_words then
    invalid_arg (Printf.sprintf "Storage %s: word %d out of range" t.name word)

let read_field ctx t ~row ~word =
  check t row word;
  Sched.Ctx.read ctx t.sim_locks row;
  Sched.Ctx.read ctx t.sim_data ((row * t.payload_words) + word);
  t.values.((row * t.payload_words) + word)

let write_field ctx t ~row ~word v =
  check t row word;
  (* lock acquire/release: an RMW on the lock word *)
  Sched.Ctx.read ctx t.sim_locks row;
  Sched.Ctx.write ctx t.sim_locks row;
  Sched.Ctx.write ctx t.sim_data ((row * t.payload_words) + word);
  t.values.((row * t.payload_words) + word) <- v

let read_record ctx t row = read_field ctx t ~row ~word:0
let write_record ctx t row v = write_field ctx t ~row ~word:0 v

