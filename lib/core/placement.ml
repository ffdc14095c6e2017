open Chipsim

(* Alg. 2 operates within one socket: CHARM's multi-level NUMA policy
   (paper §4.6) fills all chiplets of one socket before touching the next,
   so CHIPLETS in the algorithm is chiplets-per-socket and the worker gang
   is sliced into per-socket sub-gangs by id.  This also matches the
   paper's bounds-check example: 64 workers on 8-core chiplets make
   spread_rate 1 invalid (64 > 1 x 8). *)

let socket_gang_size topo ~n_workers ~socket =
  let cps = Topology.cores_per_socket topo in
  let remaining = n_workers - (socket * cps) in
  max 0 (min cps remaining)

let valid_spread topo ~spread_rate ~n_workers =
  let chiplets = topo.Topology.chiplets_per_socket in
  let cpc = topo.Topology.cores_per_chiplet in
  if spread_rate < 1 || spread_rate > chiplets then false
  else if n_workers > Topology.num_cores topo then false
  else begin
    (* every per-socket sub-gang must fit in spread_rate chiplets *)
    let ok = ref true in
    for socket = 0 to topo.Topology.sockets - 1 do
      let gang = socket_gang_size topo ~n_workers ~socket in
      if gang > spread_rate * cpc then ok := false
    done;
    !ok
  end

let min_valid_spread topo ~n_workers =
  let chiplets = topo.Topology.chiplets_per_socket in
  let k = ref 1 in
  while !k <= chiplets && not (valid_spread topo ~spread_rate:!k ~n_workers) do
    incr k
  done;
  min !k chiplets

(* Largest spread_rate a gang may take without general work spilling onto
   accelerator-only chiplets.  [Topology.chiplet_order] puts general-task
   chiplets first, so at spread k <= #general every Alg. 2 chiplet index
   maps to a general chiplet; the cap only relaxes to the full socket when
   the gang is too wide to fit on general chiplets alone. *)
let max_general_spread topo ~n_workers =
  let chiplets = topo.Topology.chiplets_per_socket in
  let general = topo.Topology.general_chiplets_per_socket in
  if general > 0 && general < chiplets
     && valid_spread topo ~spread_rate:general ~n_workers
  then general
  else chiplets

(* Alg. 2 body, applied to the worker's position within its socket's
   sub-gang.  The published formula (chiplet = id / (cpc/k), slot = id mod
   (cpc/k), with a wrap branch) is only well-defined when k divides cpc;
   for other k it collides (e.g. k = 3, cpc = 8 maps ids 0 and 2 to the
   same core).  We use the natural total version: ids are consumed in
   passes of [k * g] (g = group size per chiplet per pass), so
   [(chiplet, slot)] decomposes id bijectively —
     id = pass * (k*g) + chiplet * g + (slot mod g),  slot = pass*g + ...
   which coincides with the paper's mapping whenever k | cpc. *)
(* On a heterogeneous socket, Alg. 2's k-th chiplet is the k-th {e
   fastest} chiplet that accepts general tasks ([Topology.chiplet_order]):
   homogeneous sockets keep the identity order, so placements there are
   unchanged byte-for-byte.  Accelerator-only chiplets (general_tasks =
   false) sort last: general gangs only reach them when the gang is too
   wide to fit on the general chiplets alone. *)
let core_of_worker topo ~spread_rate ~n_workers ~worker =
  if worker < 0 || worker >= n_workers then
    invalid_arg "Placement.core_of_worker: worker out of range";
  if not (valid_spread topo ~spread_rate ~n_workers) then -1
  else begin
    let cpc = topo.Topology.cores_per_chiplet in
    let cps = Topology.cores_per_socket topo in
    let socket = worker / cps in
    let id = worker mod cps in
    let g = max 1 (cpc / spread_rate) in
    let stride = spread_rate * g in
    let pass = id / stride in
    let pos = id mod stride in
    let chiplet = pos / g in
    let slot = (pass * g) + (pos mod g) in
    if slot >= cpc || chiplet >= topo.Topology.chiplets_per_socket then -1
    else (socket * cps) + (topo.Topology.chiplet_order.(socket).(chiplet) * cpc) + slot
  end
