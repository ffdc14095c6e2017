(* Line ids are byte addresses divided by the line size, so for realistic
   simulated footprints they are small dense integers.  The holder masks
   therefore live in a flat array indexed by line — one direct read or
   write per directory operation on the per-access hot path — growing on
   demand.  Lines past [dense_limit] (sparse gigantic address spaces)
   spill into an open-addressing {!Intmap}. *)

type t = {
  chiplets : int;
  mutable dense : int array;  (* line -> holder bitmask; 0 = uncached *)
  sparse : Intmap.t;  (* lines >= dense_limit only *)
}

(* 4M lines = 256 MB of simulated memory covered by the flat array
   (32 MB of host metadata at the maximum) *)
let dense_limit = 1 lsl 22

let create ~chiplets =
  if chiplets <= 0 || chiplets > 62 then
    invalid_arg "Directory.create: chiplets must be in [1,62]";
  {
    chiplets;
    dense = Array.make (1 lsl 16) 0;
    sparse = Intmap.create ~capacity:16 ();
  }

(* an absent line has no holders: the zero mask doubles as the default,
   so presence needs no separate membership test *)
let holders t line =
  if line >= 0 && line < Array.length t.dense then Array.unsafe_get t.dense line
  else if line < dense_limit then 0  (* negative lines never stored *)
  else Intmap.get t.sparse line ~absent:0

let grow_dense t line =
  let cur = Array.length t.dense in
  let rec cap c = if c > line then c else cap (c * 2) in
  let n = min dense_limit (cap cur) in
  let bigger = Array.make n 0 in
  Array.blit t.dense 0 bigger 0 cur;
  t.dense <- bigger

let set_mask t line m =
  if line >= 0 && line < Array.length t.dense then Array.unsafe_set t.dense line m
  else if line >= 0 && line < dense_limit then begin
    grow_dense t line;
    t.dense.(line) <- m
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

let set_exclusive t ~line ~chiplet =
  check t chiplet;
  let bit = 1 lsl chiplet in
  if holders t line <> bit then set_mask t line bit

let holds t ~line ~chiplet =
  check t chiplet;
  holders t line land (1 lsl chiplet) <> 0

let iter_holders t ~line f =
  let m = holders t line in
  for c = 0 to t.chiplets - 1 do
    if m land (1 lsl c) <> 0 then f c
  done

let count_holders t ~line =
  let m = holders t line in
  let rec popcount m acc = if m = 0 then acc else popcount (m lsr 1) (acc + (m land 1)) in
  popcount m 0

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
    let m = holders t evicted in
    if m land bit <> 0 then set_mask t evicted (m land lnot bit)
  end;
  let m = holders t line in
  let holder = nearest_in_mask (m land lnot bit) ~ranks ~row in
  if m land bit = 0 then set_mask t line (m lor bit);
  holder

let claim t ~line ~chiplet =
  let bit = 1 lsl chiplet in
  let m = holders t line in
  if m <> bit then set_mask t line bit;
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

let nearest_holder topo t ~line ~from_chiplet =
  match nearest_holder_id topo t ~line ~from_chiplet with
  | -1 -> None
  | c -> Some c

let iter t f =
  for line = 0 to Array.length t.dense - 1 do
    let m = Array.unsafe_get t.dense line in
    if m <> 0 then f line m
  done;
  Intmap.iter t.sparse f

let clear t =
  Array.fill t.dense 0 (Array.length t.dense) 0;
  Intmap.clear t.sparse
