open Chipsim

type t = {
  sched : Engine.Sched.t;
  alloc_shared : elt_bytes:int -> count:int -> Simmem.region;
}

let machine t = Engine.Sched.machine t.sched
let n_workers t = Engine.Sched.n_workers t.sched

let run t main =
  ignore (Engine.Sched.spawn t.sched ~worker:0 main : Engine.Sched.task);
  Engine.Sched.run t.sched
