type 'a entry = { start : float; finish : float; seq : int; payload : 'a }

type 'a tenant_state = {
  id : int;
  weight : float;
  mutable last_finish : float;
  q : 'a entry Queue.t;
}

type 'a t = {
  tenants : (int, 'a tenant_state) Hashtbl.t;
  mutable order : 'a tenant_state array;  (* sorted by id, for deterministic scans *)
  mutable vtime : float;
  mutable next_seq : int;
  mutable size : int;
}

let create () =
  { tenants = Hashtbl.create 8; order = [||]; vtime = 0.0; next_seq = 0; size = 0 }

let add_tenant t ~tenant ~weight =
  if weight <= 0.0 then invalid_arg "Fair_queue.add_tenant: weight <= 0";
  if Hashtbl.mem t.tenants tenant then
    invalid_arg "Fair_queue.add_tenant: duplicate tenant";
  let st = { id = tenant; weight; last_finish = 0.0; q = Queue.create () } in
  Hashtbl.add t.tenants tenant st;
  t.order <- Array.append t.order [| st |];
  Array.sort (fun a b -> Int.compare a.id b.id) t.order

let push t ~tenant ~cost payload =
  if cost < 0.0 then invalid_arg "Fair_queue.push: negative cost";
  match Hashtbl.find t.tenants tenant with
  | exception Not_found -> invalid_arg "Fair_queue.push: unknown tenant"
  | st ->
      let start = Float.max t.vtime st.last_finish in
      let finish = start +. (cost /. st.weight) in
      st.last_finish <- finish;
      Queue.add { start; finish; seq = t.next_seq; payload } st.q;
      t.next_seq <- t.next_seq + 1;
      t.size <- t.size + 1

(* the index in [order] of the head with the smallest (finish, seq), as
   the tuple [<=] ordered it, NaN included; -1 when every queue is empty *)
let select t =
  let best = ref (-1) in
  for i = 0 to Array.length t.order - 1 do
    let q = t.order.(i).q in
    if not (Queue.is_empty q) then
      if !best < 0 then best := i
      else begin
        let b = Queue.peek t.order.(!best).q and e = Queue.peek q in
        if not (b.finish < e.finish || (b.finish = e.finish && b.seq <= e.seq)) then
          best := i
      end
  done;
  !best

let peek t =
  match select t with
  | -1 -> None
  | i -> Some (t.order.(i).id, (Queue.peek t.order.(i).q).payload)

let pop t =
  match select t with
  | -1 -> None
  | i ->
      let st = t.order.(i) in
      let e = Queue.pop st.q in
      t.size <- t.size - 1;
      t.vtime <- Float.max t.vtime e.start;
      Some (st.id, e.payload)

let length t = t.size

let tenant_depth t ~tenant =
  match Hashtbl.find t.tenants tenant with
  | exception Not_found -> 0
  | st -> Queue.length st.q
