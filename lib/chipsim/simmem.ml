type policy = First_touch | Bind of int | Interleave

type region = {
  base : int;
  length_bytes : int;
  elt_bytes : int;
  region_policy : policy;
}

type t = {
  topo : Topology.t;
  mutable next_base : int;
  mutable regions : region array;  (* sorted by base *)
  mutable nregions : int;
  (* page placements: pages are small dense integers (addr / 4096), so
     they live in a flat array holding node + 1 (0 = unmapped), growing on
     demand — one direct read on the DRAM-fill hot path.  Pages past
     [dense_pages] (sparse gigantic address spaces) spill into an Intmap. *)
  mutable pagemap_dense : int array;
  pagemap_sparse : Intmap.t;
}

let page_bytes = 4096

(* 1M pages = 4 GB of simulated memory covered by the flat array *)
let dense_pages = 1 lsl 20

let create topo =
  {
    topo;
    next_base = page_bytes;  (* keep 0 unmapped to catch stray addresses *)
    regions = Array.make 16 { base = 0; length_bytes = 0; elt_bytes = 1; region_policy = First_touch };
    nregions = 0;
    pagemap_dense = Array.make 4096 0;
    pagemap_sparse = Intmap.create ~capacity:16 ();
  }

(* page -> node, -1 if unmapped *)
let page_node t page =
  if page >= 0 && page < Array.length t.pagemap_dense then
    Array.unsafe_get t.pagemap_dense page - 1
  else if page < dense_pages then -1  (* negative pages never stored *)
  else Intmap.get t.pagemap_sparse page ~absent:(-1)

let set_page_node t page node =
  if page >= 0 && page < Array.length t.pagemap_dense then
    Array.unsafe_set t.pagemap_dense page (node + 1)
  else if page >= 0 && page < dense_pages then begin
    let cur = Array.length t.pagemap_dense in
    let rec cap c = if c > page then c else cap (c * 2) in
    let bigger = Array.make (min dense_pages (cap cur)) 0 in
    Array.blit t.pagemap_dense 0 bigger 0 cur;
    t.pagemap_dense <- bigger;
    t.pagemap_dense.(page) <- node + 1
  end
  else Intmap.set t.pagemap_sparse page node

let alloc t ?(policy = First_touch) ~elt_bytes ~count () =
  if elt_bytes <= 0 || count < 0 then invalid_arg "Simmem.alloc: bad geometry";
  (match policy with
  | Bind n when n < 0 || n >= t.topo.Topology.sockets ->
      invalid_arg "Simmem.alloc: bind node out of range"
  | _ -> ());
  let length_bytes = elt_bytes * max count 1 in
  let region = { base = t.next_base; length_bytes; elt_bytes; region_policy = policy } in
  let aligned = (length_bytes + page_bytes - 1) / page_bytes * page_bytes in
  t.next_base <- t.next_base + aligned + page_bytes;  (* guard page *)
  if t.nregions = Array.length t.regions then begin
    let bigger = Array.make (2 * t.nregions) region in
    Array.blit t.regions 0 bigger 0 t.nregions;
    t.regions <- bigger
  end;
  t.regions.(t.nregions) <- region;
  t.nregions <- t.nregions + 1;
  region

let addr region i =
  assert (i >= 0 && i * region.elt_bytes < region.length_bytes);
  region.base + (i * region.elt_bytes)

(* binary search for the last region with base <= a: its index if it
   holds [a], else -1 (int-coded so a page's first touch allocates no
   option) *)
let find_region t a =
  let lo = ref 0 and hi = ref (t.nregions - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let r = t.regions.(mid) in
    if r.base <= a then begin
      if a < r.base + r.length_bytes then found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !found

let node_of_addr t ~toucher_node a =
  let page = a / page_bytes in
  let node = page_node t page in
  if node >= 0 then node
  else begin
    let i = find_region t a in
    let node =
      if i < 0 then toucher_node  (* unmapped: behave like first touch *)
      else
        let r = t.regions.(i) in
        match r.region_policy with
        | First_touch -> toucher_node
        | Bind n -> n
        | Interleave -> (page - (r.base / page_bytes)) mod t.topo.Topology.sockets
    in
    set_page_node t page node;
    node
  end
