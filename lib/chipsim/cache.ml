(* Each set is one contiguous block of [ways] slots holding its valid lines
   in recency order, most recent first.  A slot packs a line id with the
   physical way it occupies, [(line lsl way_bits) lor way]; -1 marks an
   empty slot.  Empty slots always follow the valid ones, and slots at or
   past [effective_ways] are always empty.  Exact LRU needs no stamps: the
   least recently used line is the last valid slot.  The physical way
   matters only to the lowest-free-way fill rule and to way-loss faults,
   which drop the lines held in the disabled ways. *)
type t = {
  sets : int;  (* power of two *)
  ways : int;
  way_bits : int;  (* bits to hold a way index: ceil (log2 ways) *)
  size_bytes : int;
  slots : int array;  (* sets * ways, recency-ordered per set *)
  free : int array;  (* per set: bitmask of enabled ways holding no line *)
  mutable effective_ways : int;  (* <= ways; disabled ways hold no lines *)
}

(* the free-way masks are OCaml ints, one bit per way *)
let max_ways = 62

let ways_mask n = (1 lsl n) - 1

let create ?(ways = 16) ~size_bytes ~line_bytes () =
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if ways > max_ways then invalid_arg "Cache.create: at most 62 ways";
  if line_bytes <= 0 then invalid_arg "Cache.create: line_bytes must be positive";
  let lines = size_bytes / line_bytes in
  if lines < ways then invalid_arg "Cache.create: cache smaller than one set";
  let raw_sets = lines / ways in
  (* round down to a power of two so set indexing is a mask *)
  let rec pow2_below n acc = if acc * 2 > n then acc else pow2_below n (acc * 2) in
  let sets = pow2_below raw_sets 1 in
  let rec bits b = if 1 lsl b >= ways then b else bits (b + 1) in
  {
    sets;
    ways;
    way_bits = bits 0;
    size_bytes = sets * ways * line_bytes;
    slots = Array.make (sets * ways) (-1);
    free = Array.make sets (ways_mask ways);
    effective_ways = ways;
  }

(* int-coded access results: the per-access path must not allocate, so the
   outcome is a sentinel rather than a variant (line ids are >= 0, leaving
   the negatives free). *)
let hit = -2
let miss = -1

let set_of_line t line =
  (* mix the high bits in so strided workloads spread across sets *)
  let h = line lxor (line lsr 16) in
  h land (t.sets - 1)

(* Move slots [base, p) up by one and put [e] in front.  Loops are
   while-loops over local refs (kept in registers), not [let rec]
   closures; indices stay inside one set, so the unsafe accesses cannot
   leave [slots]. *)
let[@inline] to_front (slots : int array) base p e =
  let i = ref p in
  while !i > base do
    Array.unsafe_set slots !i (Array.unsafe_get slots (!i - 1));
    decr i
  done;
  Array.unsafe_set slots base e

(* Index of [line]'s slot in [p, lim), else [lim].  An entry matches when
   it equals [key] = [(line lsl wb) lor mask] once its way bits are set; an
   empty slot (-1) never does, so the scan needs no separate empty test.
   Inlined so the scan keeps its refs in registers. *)
let[@inline] scan (slots : int array) mask key p lim =
  let p = ref p in
  while !p < lim && Array.unsafe_get slots !p lor mask <> key do
    incr p
  done;
  !p

let access t line =
  let set = set_of_line t line in
  let base = set * t.ways and wb = t.way_bits in
  let mask = ways_mask wb in
  let entry = line lsl wb in
  let key = entry lor mask in
  let slots = t.slots in
  (* the most recent line needs no reordering *)
  if Array.unsafe_get slots base lor mask = key then hit
  else begin
    let lim = base + t.effective_ways in
    let i = scan slots mask key (base + 1) lim in
    if i < lim then begin
      to_front slots base i (Array.unsafe_get slots i);
      hit
    end
    else begin
      (* a miss drops the last slot.  If it holds a line (the LRU one),
         the fill reuses its way.  If it is empty, the set has a free way
         and the fill takes the lowest one; empty slots follow the valid
         ones, so only the slots before the first empty one move. *)
      let last = Array.unsafe_get slots (lim - 1) in
      if last >= 0 then begin
        to_front slots base (lim - 1) (entry lor (last land mask));
        last lsr wb
      end
      else begin
        let d = ref base in
        while Array.unsafe_get slots !d >= 0 do
          incr d
        done;
        let f = Array.unsafe_get t.free set in
        let w = ref 0 in
        while f land (1 lsl !w) = 0 do
          incr w
        done;
        Array.unsafe_set t.free set (f lxor (1 lsl !w));
        to_front slots base !d (entry lor !w);
        miss
      end
    end
  end

(* Slot index of [line], or -1. *)
let find t line =
  let base = set_of_line t line * t.ways in
  let lim = base + t.effective_ways in
  let mask = ways_mask t.way_bits in
  let i = scan t.slots mask ((line lsl t.way_bits) lor mask) base lim in
  if i < lim then i else -1

let probe t line = find t line >= 0

let invalidate t line =
  let p = find t line in
  if p >= 0 then begin
    let set = set_of_line t line in
    let base = set * t.ways in
    t.free.(set) <- t.free.(set) lor (1 lsl (t.slots.(p) land ways_mask t.way_bits));
    (* close the gap: the lines after it keep their order *)
    let lim = base + t.effective_ways in
    Array.blit t.slots (p + 1) t.slots p (lim - p - 1);
    t.slots.(lim - 1) <- -1
  end;
  p >= 0

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  Array.fill t.free 0 t.sets (ways_mask t.effective_ways)

let size_bytes t = t.size_bytes
let ways t = t.ways
let sets t = t.sets
let effective_ways t = t.effective_ways

let set_effective_ways ?(on_drop = ignore) t ways =
  let ways = max 1 (min t.ways ways) in
  let eff = t.effective_ways in
  if ways < eff then
    (* lines resident in the disabled ways are lost, as with real L3 way
       partitioning; the survivors close up in their recency order *)
    for s = 0 to t.sets - 1 do
      let base = s * t.ways in
      let j = ref base in
      for i = base to base + eff - 1 do
        let e = t.slots.(i) in
        if e >= 0 then
          if e land ways_mask t.way_bits < ways then begin
            t.slots.(!j) <- e;
            incr j
          end
          else on_drop (e lsr t.way_bits)
      done;
      Array.fill t.slots !j (base + eff - !j) (-1);
      t.free.(s) <- t.free.(s) land ways_mask ways
    done
  else if ways > eff then begin
    let enabled = ways_mask ways land lnot (ways_mask eff) in
    for s = 0 to t.sets - 1 do
      t.free.(s) <- t.free.(s) lor enabled
    done
  end;
  t.effective_ways <- ways

let iter t f =
  let all_free = ways_mask t.effective_ways in
  for s = 0 to t.sets - 1 do
    (* the valid lines are a prefix of each set, and the free-way masks
       (one word per set) skip the empty sets without touching them *)
    if t.free.(s) <> all_free then begin
      let p = ref (s * t.ways) and lim = (s * t.ways) + t.effective_ways in
      while !p < lim && t.slots.(!p) >= 0 do
        f (t.slots.(!p) lsr t.way_bits);
        incr p
      done
    end
  done

