open Chipsim

type t = {
  config : Config.t;
  machine : Machine.t;
  bindings : int option array;  (* per worker *)
  owned : Simmem.region list array;  (* per worker *)
  mutable on_rebind : worker:int -> node:int -> regions:int -> unit;
}

let create config machine ~n_workers =
  Config.validate config (Machine.topology machine);
  {
    config;
    machine;
    bindings = Array.make n_workers None;
    owned = Array.make n_workers [];
    on_rebind = (fun ~worker:_ ~node:_ ~regions:_ -> ());
  }

let set_on_rebind t f = t.on_rebind <- f

let bind_worker t ~worker ~node =
  let topo = Machine.topology t.machine in
  if node < 0 || node >= topo.Topology.sockets then
    invalid_arg "Memory_manager.bind_worker: node out of range";
  t.bindings.(worker) <- Some node

let alloc_shared t ?policy ~elt_bytes ~count () =
  Machine.alloc t.machine ?policy ~elt_bytes ~count ()

let on_migrate t ~worker ~old_core ~new_core =
  (* a never-bound worker allocates first-touch by choice; migrating it
     must not silently harden that into a [Bind] policy, and with
     [rebind_memory_on_migrate] off the binding itself stays put too *)
  match t.bindings.(worker) with
  | None -> ()
  | Some _ when not t.config.Config.rebind_memory_on_migrate -> ()
  | Some _ ->
      let topo = Machine.topology t.machine in
      let old_node = Topology.socket_of_core topo old_core in
      let new_node = Topology.socket_of_core topo new_core in
      t.bindings.(worker) <- Some new_node;
      if old_node <> new_node then begin
        List.iter
          (fun region -> Simmem.rebind (Machine.mem t.machine) region (Simmem.Bind new_node))
          t.owned.(worker);
        t.on_rebind ~worker ~node:new_node ~regions:(List.length t.owned.(worker))
      end
