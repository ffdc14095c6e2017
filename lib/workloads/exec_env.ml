open Chipsim

type t = {
  sched : Engine.Sched.t;
  alloc_shared : elt_bytes:int -> count:int -> Simmem.region;
  run : (Engine.Sched.ctx -> unit) -> float;
}

let machine t = Engine.Sched.machine t.sched
let n_workers t = Engine.Sched.n_workers t.sched
