open Chipsim

type t = {
  parties : int;
  mutable arrived : (Sched.task * int * float) list;  (* task, core, arrival *)
}

let create n =
  if n <= 0 then invalid_arg "Barrier.create: parties must be positive";
  { parties = n; arrived = [] }

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let release_cost machine cores ~releaser_core =
  let topo = Machine.topology machine in
  let profile = Machine.profile machine in
  let max_dist =
    List.fold_left
      (fun acc c -> Float.max acc (Latency.core_to_core_ns ~profile topo releaser_core c))
      0.0 cores
  in
  2.0 *. max_dist *. float_of_int (log2_ceil (List.length cores + 1))

let wait ctx t =
  let sched = Sched.Ctx.sched ctx in
  let machine = Sched.Ctx.machine ctx in
  let my_core = Sched.Ctx.core ctx in
  let now = Sched.Ctx.now ctx in
  if List.length t.arrived + 1 < t.parties then
    Sched.Ctx.suspend ctx (fun task ->
        t.arrived <- (task, my_core, now) :: t.arrived)
  else begin
    (* last arrival: release everyone *)
    let waiters = t.arrived in
    t.arrived <- [];
    let cores = my_core :: List.map (fun (_, c, _) -> c) waiters in
    let latest =
      List.fold_left (fun acc (_, _, at) -> Float.max acc at) now waiters
    in
    let cost = release_cost machine cores ~releaser_core:my_core in
    let release_at = latest +. cost in
    List.iter (fun (task, _, _) -> Sched.ready sched ~at:release_at task) waiters;
    (* the releaser also pays the synchronization cost *)
    Sched.Ctx.work ctx (release_at -. now)
  end
