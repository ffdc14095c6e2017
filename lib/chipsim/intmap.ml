(* Open-addressing int -> int hash map with linear probing.  The coherence
   directory and the page map sit on the per-access hot path; the generic
   Hashtbl costs a C hashing call plus bucket-list pointer chasing per
   lookup and allocates a cons cell per insert.  This table is one flat
   int array of interleaved (key, value) pairs — a probe touches a single
   cache line — and one multiplicative hash; no operation allocates
   except growth. *)

type t = {
  mutable data : int array;  (* slot i: key at 2i, value at 2i+1 *)
  mutable mask : int;  (* slots - 1; slot count is a power of two *)
  mutable size : int;  (* live entries *)
  mutable used : int;  (* live entries + tombstones *)
}

let empty_slot = -1  (* key marker: never used *)
let tomb = -2  (* key marker: deleted *)

let create ?(capacity = 16) () =
  let rec pow2 n acc = if acc >= n then acc else pow2 n (acc * 2) in
  let cap = pow2 (max capacity 8) 8 in
  { data = Array.make (2 * cap) empty_slot; mask = cap - 1; size = 0; used = 0 }

(* Multiplicative hashing (SplitMix finalizer constant, truncated to
   OCaml's 63-bit int range): one multiply, one shift-xor, then mask.
   Keys are non-negative, but the product may wrap negative — the mask
   clears the sign. *)
let hash k mask =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

(* probe offsets are always (masked slot) * 2 [+ 1], so the unsafe
   accesses below cannot leave the (power-of-two sized) array *)
let get t k ~absent =
  let data = t.data and mask = t.mask in
  let i = ref (hash k mask) in
  let res = ref absent and continue_ = ref true in
  while !continue_ do
    let kk = Array.unsafe_get data (2 * !i) in
    if kk = k then begin
      res := Array.unsafe_get data ((2 * !i) + 1);
      continue_ := false
    end
    else if kk = empty_slot then continue_ := false
    else i := (!i + 1) land mask
  done;
  !res

let rec grow t =
  (* If live entries occupy under a quarter of the table, the load is all
     tombstones (heavy insert/remove churn, e.g. the coherence directory
     under cache eviction): rehash in place to clear them instead of
     doubling, or capacity would grow without bound. *)
  let cap = t.mask + 1 in
  let cap = if t.size * 4 <= cap then cap else cap * 2 in
  let old = t.data in
  t.data <- Array.make (2 * cap) empty_slot;
  t.mask <- cap - 1;
  t.used <- t.size;
  let mask = t.mask and data = t.data in
  let n = Array.length old / 2 in
  for s = 0 to n - 1 do
    let k = old.(2 * s) in
    if k >= 0 then begin
      let i = ref (hash k mask) in
      while data.(2 * !i) <> empty_slot do
        i := (!i + 1) land mask
      done;
      data.(2 * !i) <- k;
      data.((2 * !i) + 1) <- old.((2 * s) + 1)
    end
  done

and set t k v =
  if k < 0 then invalid_arg "Intmap.set: negative key";
  (* grow at 1/2 load (counting tombstones) so probe runs stay short *)
  if (t.used + 1) * 2 > t.mask + 1 then grow t;
  let data = t.data and mask = t.mask in
  let i = ref (hash k mask) in
  let slot = ref (-1) and continue_ = ref true in
  while !continue_ do
    let kk = Array.unsafe_get data (2 * !i) in
    if kk = k then begin
      slot := !i;
      continue_ := false
    end
    else if kk = empty_slot then begin
      (* reuse the first tombstone passed on the way, if any *)
      if !slot = -1 then begin
        slot := !i;
        t.used <- t.used + 1
      end;
      data.(2 * !slot) <- k;
      t.size <- t.size + 1;
      continue_ := false
    end
    else begin
      if kk = tomb && !slot = -1 then slot := !i;
      i := (!i + 1) land mask
    end
  done;
  data.((2 * !slot) + 1) <- v

let remove t k =
  let data = t.data and mask = t.mask in
  let i = ref (hash k mask) in
  let continue_ = ref true in
  while !continue_ do
    let kk = Array.unsafe_get data (2 * !i) in
    if kk = k then begin
      data.(2 * !i) <- tomb;
      t.size <- t.size - 1;
      continue_ := false
    end
    else if kk = empty_slot then continue_ := false
    else i := (!i + 1) land mask
  done

let iter t f =
  let n = Array.length t.data / 2 in
  for s = 0 to n - 1 do
    let k = t.data.(2 * s) in
    if k >= 0 then f k t.data.((2 * s) + 1)
  done
