type t = {
  nodes : int;
  line_bytes : int;
  capacity_bytes_per_bin : float;  (* per node, at full health *)
  cap_factor : float array;  (* per node, fault throttling in (0, 1] *)
  bin_ids : int array;  (* which absolute bin each slot currently holds *)
  bin_bytes : int array;
  total_bytes : int array;  (* per node *)
  mutable stale_accesses : int;  (* accesses landing in an already-recycled bin *)
}

(* Ring of recent bins per node: bins.(node * ring + (bin land ring_mask));
   the ring is a power of two so the wrap is a mask, not an integer
   divide. *)
let ring = 8192
let ring_mask = ring - 1
let bin_ns = 1000.0

let create ~nodes ~channels_per_node ~bytes_per_ns_per_channel ~line_bytes () =
  if nodes <= 0 then invalid_arg "Memchan.create: nodes must be positive";
  if channels_per_node <= 0 then
    invalid_arg "Memchan.create: channels_per_node must be positive";
  {
    nodes;
    line_bytes;
    capacity_bytes_per_bin =
      float_of_int channels_per_node *. bytes_per_ns_per_channel *. bin_ns;
    cap_factor = Array.make nodes 1.0;
    bin_ids = Array.make (nodes * ring) (-1);
    bin_bytes = Array.make (nodes * ring) 0;
    total_bytes = Array.make nodes 0;
    stale_accesses = 0;
  }

let slot node bin = (node * ring) + (bin land ring_mask)

(* clamp below at 0 so a (defensive) negative timestamp cannot index into
   another node's slot range *)
let bin_of now_ns =
  let b = int_of_float (now_ns /. bin_ns) in
  if b < 0 then 0 else b

let check_node t node =
  if node < 0 || node >= t.nodes then invalid_arg "Memchan: node out of range"

let capacity t node = t.capacity_bytes_per_bin *. t.cap_factor.(node)

let set_capacity_factor t ~node factor =
  check_node t node;
  t.cap_factor.(node) <- Float.max 0.01 (Float.min 1.0 factor)

let current_bytes t node bin =
  let s = slot node bin in
  if t.bin_ids.(s) = bin then t.bin_bytes.(s) else 0


(* The hot entry point exchanges its floats through the caller's 2-slot io
   cell — [io.(0)] holds now_ns on entry and the charged latency on return,
   [io.(1)] holds base_ns — because boxed float arguments/returns were the
   last allocation left on the per-access path. *)
let charge t ~node io =
  check_node t node;
  let now_ns = io.(0) and base_ns = io.(1) in
  let bin = bin_of now_ns in
  (* [node] is checked above and [bin] is clamped non-negative, so the
     ring index and the per-node reads below are in bounds by
     construction — unsafe accesses keep the per-fill path lean *)
  let s = slot node bin in
  let bin_ids = t.bin_ids and bin_bytes = t.bin_bytes in
  t.total_bytes.(node) <- t.total_bytes.(node) + t.line_bytes;
  let demand_bytes =
    let id = Array.unsafe_get bin_ids s in
    if id = bin then begin
      let b = Array.unsafe_get bin_bytes s + t.line_bytes in
      Array.unsafe_set bin_bytes s b;
      b
    end
    else if id < bin then begin
      (* fresh (or recycled) bin: the slot's previous occupant is older and
         its window has passed *)
      Array.unsafe_set bin_ids s bin;
      Array.unsafe_set bin_bytes s t.line_bytes;
      t.line_bytes
    end
    else begin
      (* ring wraparound alias: a lagging worker touches a bin whose slot was
         already recycled by an access [ring] bins later.  Resetting the slot
         here would erase the newer bin's demand history (the old silent
         bug); instead keep the newer bin intact, count the stale access, and
         charge the lagging access at its own (unknowable) bin's base load. *)
      t.stale_accesses <- t.stale_accesses + 1;
      t.line_bytes
    end
  in
  (* contention_factor, hand-inlined: a non-inlined float call here would
     box its argument and result on every access *)
  let load = float_of_int demand_bytes /. (t.capacity_bytes_per_bin *. t.cap_factor.(node)) in
  let f = if load <= 1.0 then 1.0 +. (0.3 *. load) else 1.3 +. (2.0 *. (load -. 1.0)) in
  io.(0) <- base_ns *. f

(* Bulk transfer: [lines] whole lines charged against one bin in a single
   update — the task-graph edge path, where a tensor's bytes cross the
   channel at once rather than line-by-line through the cache hierarchy.
   The latency adds a serialization term (bytes over the node's
   deliverable bytes/ns) to [base_ns], then applies the same contention
   factor as [charge], computed at the post-charge bin load.  Demand and
   byte totals stay whole lines, so [check_invariants] holds unchanged. *)
let charge_lines t ~node ~now_ns ~base_ns ~lines =
  check_node t node;
  if lines < 0 then invalid_arg "Memchan.charge_lines: negative line count";
  if lines = 0 then base_ns
  else begin
    let bytes = lines * t.line_bytes in
    let bin = bin_of now_ns in
    let s = slot node bin in
    t.total_bytes.(node) <- t.total_bytes.(node) + bytes;
    let demand_bytes =
      let id = t.bin_ids.(s) in
      if id = bin then begin
        let b = t.bin_bytes.(s) + bytes in
        t.bin_bytes.(s) <- b;
        b
      end
      else if id < bin then begin
        t.bin_ids.(s) <- bin;
        t.bin_bytes.(s) <- bytes;
        bytes
      end
      else begin
        (* stale ring-wraparound access: same policy as [charge] *)
        t.stale_accesses <- t.stale_accesses + 1;
        bytes
      end
    in
    let cap = t.capacity_bytes_per_bin *. t.cap_factor.(node) in
    let load = float_of_int demand_bytes /. cap in
    let f =
      if load <= 1.0 then 1.0 +. (0.3 *. load)
      else 1.3 +. (2.0 *. (load -. 1.0))
    in
    let serialization_ns = float_of_int bytes *. bin_ns /. cap in
    (base_ns +. serialization_ns) *. f
  end

let load_ratio t ~node ~now_ns =
  check_node t node;
  let bin = bin_of now_ns in
  float_of_int (current_bytes t node bin) /. capacity t node

let bytes_served t ~node =
  check_node t node;
  t.total_bytes.(node)

let stale_accesses t = t.stale_accesses

(* Full O(nodes * slots) scan — for tests, end-of-run verification and the
   scenario fuzzer, not the per-access hot path. *)
let check_invariants t =
  if t.stale_accesses < 0 then
    Invariant.fail "memchan: negative stale-access count %d" t.stale_accesses;
  for node = 0 to t.nodes - 1 do
    let cf = t.cap_factor.(node) in
    if cf < 0.01 -. 1e-12 || cf > 1.0 +. 1e-12 then
      Invariant.fail "memchan: node %d capacity factor %g outside [0.01, 1]"
        node cf;
    if t.total_bytes.(node) < 0 then
      Invariant.fail "memchan: node %d negative byte total %d" node
        t.total_bytes.(node);
    if t.total_bytes.(node) mod t.line_bytes <> 0 then
      Invariant.fail
        "memchan: node %d byte total %d not a multiple of the %d-byte line"
        node t.total_bytes.(node) t.line_bytes;
    (* ring conservation: live bins hold at most what was ever served (the
       difference is bins whose slots were since recycled), and a slot is
       populated iff it holds a bin *)
    let live = ref 0 in
    for s = node * ring to ((node + 1) * ring) - 1 do
      let id = t.bin_ids.(s) and bytes = t.bin_bytes.(s) in
      if bytes < 0 then
        Invariant.fail "memchan: node %d slot %d negative demand %d" node s
          bytes;
      if id = -1 && bytes <> 0 then
        Invariant.fail "memchan: node %d slot %d holds %d bytes but no bin"
          node s bytes;
      if id >= 0 && bytes = 0 then
        Invariant.fail "memchan: node %d slot %d holds bin %d with no bytes"
          node s id;
      if id >= 0 && slot node id <> s then
        Invariant.fail "memchan: node %d slot %d holds bin %d that maps to slot %d"
          node s id (slot node id);
      live := !live + bytes
    done;
    if !live > t.total_bytes.(node) then
      Invariant.fail
        "memchan: node %d ring holds %d bytes but only %d were ever served"
        node !live t.total_bytes.(node)
  done
