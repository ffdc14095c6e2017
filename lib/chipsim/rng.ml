(* The 64-bit state lives in an 8-byte buffer rather than a mutable int64
   field: a record field holds a boxed int64, so every draw would allocate
   a fresh box.  Reading and writing the bytes keeps the arithmetic
   unboxed: [int], [bool] and [shuffle] allocate nothing, and [float]
   only the box its result needs when the caller is in another module. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 s;
  mix s

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let[@inline] float t bound = bound *. float_of_int (bits53 t) /. 9007199254740992.0 (* 2^53 *)

let[@inline] bool t = Int64.logand (next t) 1L = 1L

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
