(* Line ids are byte addresses divided by the line size, so for realistic
   simulated footprints they are small dense integers.  The holder masks
   therefore live in 64-line pages (one 4 KiB Simmem page at 64-byte
   lines) under a top-level array indexed by [line lsr page_shift]: the
   per-access entry points ({!fill}, {!claim}) find a line's page once
   and then read and write the mask in it directly.  {!reserve} places a
   region's pages when {!Machine.alloc} places the region, so that path
   allocates nothing; a line outside every region gets its page at its
   first non-zero mask.  An absent page is [absent], an empty array: it
   holds nothing that could be written, so it is no shared mutable zero
   page, and a lookup tells it by identity instead of reading the page's
   length, whose cache line is not the mask's.  Lines past [dense_limit]
   (sparse gigantic address spaces) spill into an open-addressing
   {!Intmap}. *)

type t = {
  chiplets : int;
  mutable pages : int array array;
      (* line lsr page_shift -> the page's holder bitmasks (0 = uncached),
         or [absent] while the page is absent *)
  sparse : Intmap.t;  (* lines >= dense_limit only *)
}

let page_shift = 6
let page_lines = 1 lsl page_shift

(* 4M lines = 256 MB of simulated memory covered by pages (a 64K-entry
   top-level array and 32 MB of host metadata at the maximum) *)
let dense_limit = 1 lsl 22

(* the one absent page: empty, hence immutable *)
let absent : int array = [||]

let create ~chiplets =
  if chiplets <= 0 || chiplets > 62 then
    invalid_arg "Directory.create: chiplets must be in [1,62]";
  { chiplets; pages = Array.make 16 absent; sparse = Intmap.create ~capacity:16 () }

(* the placed page holding line [line], or [absent]: a negative line's
   [lsr], like a line past [dense_limit], is past every page *)
let[@inline] page_at t line =
  let p = line lsr page_shift in
  if p < Array.length t.pages then Array.unsafe_get t.pages p else absent

(* an absent line has no holders: the zero mask doubles as the default,
   so presence needs no separate membership test *)
let holders t line =
  let page = page_at t line in
  if page != absent then Array.unsafe_get page (line land (page_lines - 1))
  else if line < dense_limit then 0  (* negative lines never stored *)
  else Intmap.get t.sparse line ~absent:0

(* the top-level array, grown by doubling to hold page [p] *)
let cover t p =
  let cur = Array.length t.pages in
  if p >= cur then begin
    let rec cap c = if c > p then c else cap (c * 2) in
    let bigger = Array.make (min (dense_limit lsr page_shift) (cap cur)) absent in
    Array.blit t.pages 0 bigger 0 cur;
    t.pages <- bigger
  end

(* the page holding line [line] (which is in [0, dense_limit)), placed
   now if absent *)
let page_of t line =
  let p = line lsr page_shift in
  cover t p;
  let page = t.pages.(p) in
  if page != absent then page
  else begin
    let page = Array.make page_lines 0 in
    t.pages.(p) <- page;
    page
  end

let reserve t ~first ~last =
  if first < 0 || last < first then invalid_arg "Directory.reserve: bad line range";
  let last = min last (dense_limit - 1) in
  if first <= last then begin
    cover t (last lsr page_shift);
    for p = first lsr page_shift to last lsr page_shift do
      ignore (page_of t (p lsl page_shift) : int array)
    done
  end

let set_mask t line m =
  let page = page_at t line in
  if page != absent then Array.unsafe_set page (line land (page_lines - 1)) m
  else if line >= 0 && line < dense_limit then begin
    (* an absent page reads 0 already *)
    if m <> 0 then (page_of t line).(line land (page_lines - 1)) <- m
  end
  else if m = 0 then Intmap.remove t.sparse line
  else Intmap.set t.sparse line m

let check t chiplet =
  if chiplet < 0 || chiplet >= t.chiplets then
    invalid_arg "Directory: chiplet out of range"

let add t ~line ~chiplet =
  check t chiplet;
  let m = holders t line in
  let bit = 1 lsl chiplet in
  if m land bit = 0 then set_mask t line (m lor bit)

let remove t ~line ~chiplet =
  check t chiplet;
  let m = holders t line in
  let bit = 1 lsl chiplet in
  if m land bit <> 0 then set_mask t line (m land lnot bit)

let holds t ~line ~chiplet =
  check t chiplet;
  holders t line land (1 lsl chiplet) <> 0

(* Nearest chiplet in the holder mask [m] ([-1] if empty); int-coded so
   the hot path allocates no option.  The shift-loop stops at the highest
   set holder bit instead of scanning every chiplet.  [ranks] is a row of
   a precomputed chiplets x chiplets distance-rank matrix ({!Machine} owns
   one), so picking the nearest holder costs one array read per set bit
   instead of a classify call. *)
let nearest_in_mask m0 ~ranks ~row =
  let best = ref (-1) and best_rank = ref max_int in
  let m = ref m0 and c = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then begin
      let r = Array.unsafe_get ranks (row + !c) in
      if r < !best_rank then begin
        best_rank := r;
        best := !c
      end
    end;
    m := !m lsr 1;
    incr c
  done;
  !best

(* The two {!Machine} per-access entry points.  Each does in one call what
   the checked operations above would need two or three for, and skips
   [check]: the chiplet is the accessing core's own, in range by
   construction. *)
let fill t ~line ~chiplet ~evicted ~ranks ~row =
  let bit = 1 lsl chiplet in
  if evicted >= 0 then begin
    let page = page_at t evicted in
    if page != absent then begin
      let i = evicted land (page_lines - 1) in
      let m = Array.unsafe_get page i in
      if m land bit <> 0 then Array.unsafe_set page i (m land lnot bit)
    end
    else begin
      let m = holders t evicted in
      if m land bit <> 0 then set_mask t evicted (m land lnot bit)
    end
  end;
  let page = page_at t line in
  if page != absent then begin
    let i = line land (page_lines - 1) in
    let m = Array.unsafe_get page i in
    if m land bit = 0 then Array.unsafe_set page i (m lor bit);
    nearest_in_mask (m land lnot bit) ~ranks ~row
  end
  else begin
    let m = holders t line in
    if m land bit = 0 then set_mask t line (m lor bit);
    nearest_in_mask (m land lnot bit) ~ranks ~row
  end

let claim t ~line ~chiplet =
  let bit = 1 lsl chiplet in
  let page = page_at t line in
  let m =
    if page != absent then begin
      let i = line land (page_lines - 1) in
      let m = Array.unsafe_get page i in
      if m <> bit then Array.unsafe_set page i bit;
      m
    end
    else begin
      let m = holders t line in
      if m <> bit then set_mask t line bit;
      m
    end
  in
  m land lnot bit

let nearest_holder_id topo t ~line ~from_chiplet =
  let m0 = holders t line land lnot (1 lsl from_chiplet) in
  if m0 = 0 then -1
  else begin
    let best = ref (-1) and best_rank = ref max_int in
    let m = ref m0 and c = ref 0 in
    while !m <> 0 do
      if !m land 1 <> 0 then begin
        let r =
          Latency.rank_of_distance
            (Latency.classify_chiplets topo from_chiplet !c)
        in
        if r < !best_rank then begin
          best_rank := r;
          best := !c
        end
      end;
      m := !m lsr 1;
      incr c
    done;
    !best
  end

let iter t f =
  Array.iteri
    (fun p page ->
      for i = 0 to Array.length page - 1 do
        let m = Array.unsafe_get page i in
        if m <> 0 then f ((p lsl page_shift) + i) m
      done)
    t.pages;
  Intmap.iter t.sparse f
