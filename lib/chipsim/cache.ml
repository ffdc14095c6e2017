(* Each set is one contiguous block of [ways] interleaved (tag, stamp)
   pairs, so a way's tag and stamp share a host cache line and a lookup
   walks one block.  A tag of -1 marks an invalid way, whose stamp is
   never read; ways at or past [effective_ways] always hold -1. *)
type t = {
  sets : int;  (* power of two *)
  ways : int;
  size_bytes : int;
  slots : int array;  (* sets * ways * 2: tag at base + 2w, stamp at +1 *)
  mru : int array;  (* per set: the way accessed last, probed first *)
  mutable clock : int;
  mutable effective_ways : int;  (* <= ways; disabled ways hold no lines *)
}

let create ?(ways = 16) ~size_bytes ~line_bytes () =
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if line_bytes <= 0 then invalid_arg "Cache.create: line_bytes must be positive";
  let lines = size_bytes / line_bytes in
  if lines < ways then invalid_arg "Cache.create: cache smaller than one set";
  let raw_sets = lines / ways in
  (* round down to a power of two so set indexing is a mask *)
  let rec pow2_below n acc = if acc * 2 > n then acc else pow2_below n (acc * 2) in
  let sets = pow2_below raw_sets 1 in
  {
    sets;
    ways;
    size_bytes = sets * ways * line_bytes;
    slots = Array.make (sets * ways * 2) (-1);
    mru = Array.make sets 0;
    clock = 0;
    effective_ways = ways;
  }

(* int-coded access results: the per-access path must not allocate, so the
   outcome is a sentinel rather than a variant (line ids are >= 0, leaving
   the negatives free).  [miss] equals the invalid tag, so a fill into an
   empty way returns the old tag as it stands. *)
let hit = -2
let miss = -1

let set_of_line t line =
  (* mix the high bits in so strided workloads spread across sets *)
  let h = line lxor (line lsr 16) in
  h land (t.sets - 1)

(* Slot index of [line]'s tag in the set starting at [base], or -1.  A
   tag-only scan (stamps are read by the victim scan alone), inlined so the
   hint-miss path of [access] spills no registers around a call. *)
let[@inline] find t base line =
  let slots = t.slots and lim = base + (2 * t.effective_ways) in
  let p = ref base in
  while !p < lim && Array.unsafe_get slots !p <> line do
    p := !p + 2
  done;
  if !p < lim then !p else -1

(* Loops are while-loops over local refs (kept in registers), not [let
   rec] closures.  The set index is masked and ways stay below [ways], so
   the unsafe accesses cannot leave [slots]. *)
let access t line =
  t.clock <- t.clock + 1;
  let set = set_of_line t line in
  let base = set * 2 * t.ways in
  let slots = t.slots in
  let h = base + (2 * Array.unsafe_get t.mru set) in
  (* The hint way's tag is the ground truth, so a hint left stale by
     [invalidate], [set_effective_ways] or [clear] just fails the compare.
     When it matches, that way already holds the set's newest stamp (every
     access to the set moves the hint), so refreshing the stamp would not
     change the set's LRU order and is skipped. *)
  if Array.unsafe_get slots h = line then hit
  else begin
    let p = find t base line in
    if p >= 0 then begin
      Array.unsafe_set slots (p + 1) t.clock;
      Array.unsafe_set t.mru set ((p - base) lsr 1);
      hit
    end
    else begin
      (* victim: the first invalid way, else the lowest stamp, ties to
         the lower way *)
      let lim = base + (2 * t.effective_ways) in
      let victim = ref base and best = ref max_int and p = ref base in
      while !p < lim do
        if Array.unsafe_get slots !p = -1 then begin
          victim := !p;
          p := lim
        end
        else begin
          let s = Array.unsafe_get slots (!p + 1) in
          if s < !best then begin
            best := s;
            victim := !p
          end;
          p := !p + 2
        end
      done;
      let v = !victim in
      let evicted = Array.unsafe_get slots v in
      Array.unsafe_set slots v line;
      Array.unsafe_set slots (v + 1) t.clock;
      Array.unsafe_set t.mru set ((v - base) lsr 1);
      evicted
    end
  end

let probe t line = find t (set_of_line t line * 2 * t.ways) line >= 0

let invalidate t line =
  let p = find t (set_of_line t line * 2 * t.ways) line in
  if p >= 0 then t.slots.(p) <- -1;
  p >= 0

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.clock <- 0

let size_bytes t = t.size_bytes
let ways t = t.ways
let sets t = t.sets
let effective_ways t = t.effective_ways

let set_effective_ways t ways =
  let ways = max 1 (min t.ways ways) in
  if ways < t.effective_ways then
    (* lines resident in the disabled ways are lost, as with real L3 way
       partitioning: the victim ways drop their contents *)
    for s = 0 to t.sets - 1 do
      for w = ways to t.effective_ways - 1 do
        t.slots.(2 * ((s * t.ways) + w)) <- -1
      done
    done;
  t.effective_ways <- ways

let occupancy t =
  let n = ref 0 in
  Array.iteri (fun i x -> if i land 1 = 0 && x <> -1 then incr n) t.slots;
  !n
