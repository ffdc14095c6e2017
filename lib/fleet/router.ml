type policy = Round_robin | Least_loaded | Ewma | Charm_aware

let policy_name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Ewma -> "ewma"
  | Charm_aware -> "charm"

let all_policies = [ Round_robin; Least_loaded; Ewma; Charm_aware ]

type view = {
  shard : int;
  mutable capacity : float;
  mutable sick_fraction : float;
  mutable load_ns : float;
  mutable depth : int;
}

type t = {
  policy : policy;
  mutable rr : int;
  affinity : (string, int) Hashtbl.t;
  ewma : (int, float) Hashtbl.t;  (* shard -> smoothed observed latency, ns *)
}

let create policy =
  { policy; rr = 0; affinity = Hashtbl.create 16; ewma = Hashtbl.create 16 }

let policy t = t.policy
let ewma_alpha = 0.2

let observe t ~shard ~service_ns =
  if service_ns >= 0.0 then
    let v =
      match Hashtbl.find_opt t.ewma shard with
      | None -> service_ns
      | Some prev -> (ewma_alpha *. service_ns) +. ((1.0 -. ewma_alpha) *. prev)
    in
    Hashtbl.replace t.ewma shard v

let observed_latency t ~shard =
  Option.value ~default:0.0 (Hashtbl.find_opt t.ewma shard)

(* Every policy hard-skips fully-offline shards (capacity 0): even a
   chiplet-blind router sees machine-level liveness, the way a TCP health
   check would.  What the blind policies cannot see is *partial*
   degradation — throttled cores, sick chiplets — which is exactly the
   signal [Charm_aware] scores by. *)
let eligible ~exclude v = v.shard <> exclude && v.capacity > 0.0

let effective_capacity v =
  Float.max 0.05 (v.capacity *. (1.0 -. (0.75 *. v.sick_fraction)))

let score t ~tenant v =
  match t.policy with
  | Round_robin -> 0.0 (* unused *)
  | Least_loaded -> v.load_ns
  | Ewma ->
      (* expected wait: smoothed observed per-job latency times queue
         depth.  A throttled shard's completions come back slow, its EWMA
         rises, and new jobs drift away — no machine introspection needed.
         Unobserved shards score 0, so the policy explores them first. *)
      observed_latency t ~shard:v.shard *. (1.0 +. float_of_int v.depth)
  | Charm_aware ->
      let s = v.load_ns /. effective_capacity v in
      (* tenant affinity: a shard already serving this tenant has its
         datasets warm in cache — a mild bonus, never enough to override
         a clearly sick or overloaded shard *)
      let bonus =
        match Hashtbl.find_opt t.affinity tenant with
        | Some last when last = v.shard -> 0.9
        | _ -> 1.0
      in
      s *. bonus

let choose t ?(exclude = -1) ~tenant ~cost views =
  let n = Array.length views in
  let chosen =
    match t.policy with
    | Round_robin ->
        let rec go k =
          if k >= n then None
          else
            let v = views.((t.rr + k) mod n) in
            if eligible ~exclude v then Some v else go (k + 1)
        in
        go 0
    | Least_loaded | Ewma | Charm_aware ->
        let best = ref None in
        Array.iter
          (fun v ->
            if eligible ~exclude v then
              let s = score t ~tenant v in
              match !best with
              | Some (bs, bv) when bs < s || (bs = s && bv.shard < v.shard) ->
                  ()
              | _ -> best := Some (s, v))
          views;
        Option.map snd !best
  in
  match chosen with
  | None -> None
  | Some v ->
      t.rr <- (v.shard + 1) mod n;
      Hashtbl.replace t.affinity tenant v.shard;
      (* within-epoch feedback: account the placed job's demand so a
         burst routed between two drain points spreads instead of piling
         onto whichever shard looked emptiest at the epoch snapshot *)
      v.load_ns <- v.load_ns +. cost;
      v.depth <- v.depth + 1;
      Some v.shard
