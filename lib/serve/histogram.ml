(* the geometric bucket ratio: ~12% worst-case quantile error *)
let growth = 1.12
let log_growth = log growth

type t = {
  mutable counts : int array;  (* grown on demand *)
  mutable total : int;
  mutable sum : float;
  mutable max_v : float;
}

let create () =
  {
    counts = Array.make 32 0;
    total = 0;
    sum = 0.0;
    max_v = neg_infinity;
  }

(* Hard cap on the bucket index: [int_of_float] on the huge (or infinite)
   result of the log formula is unspecified, and a single absurd sample
   must not allocate an unbounded counts array.  With growth 1.12 bucket
   4096 already covers > 10^201, so nothing real clamps. *)
let max_bucket = 4096

(* bucket 0 = (-inf, 1]; bucket i>0 = (g^(i-1), g^i] *)
let bucket_of v =
  if Float.is_nan v then 0
  else if v <= 1.0 then 0
  else if v >= growth ** float_of_int max_bucket then max_bucket
  else min max_bucket (1 + int_of_float (Float.floor (log v /. log_growth)))

let bucket_upper i = if i = 0 then 1.0 else growth ** float_of_int i

let ensure t i =
  let n = Array.length t.counts in
  if i >= n then begin
    let counts = Array.make (max (i + 1) (2 * n)) 0 in
    Array.blit t.counts 0 counts 0 n;
    t.counts <- counts
  end

let observe t v =
  let i = bucket_of v in
  ensure t i;
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum +. v;
  if v > t.max_v then t.max_v <- v

let count t = t.total
let sum t = t.sum
let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total
let max_value t = t.max_v

let quantile t q =
  if t.total = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
    let i = ref 0 and seen = ref 0 in
    while !seen < rank do
      seen := !seen + t.counts.(!i);
      if !seen < rank then incr i
    done;
    Float.min (bucket_upper !i) t.max_v
  end

let p50 t = quantile t 0.50
let p95 t = quantile t 0.95
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

let merge dst src =
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        ensure dst i;
        dst.counts.(i) <- dst.counts.(i) + c
      end)
    src.counts;
  dst.total <- dst.total + src.total;
  dst.sum <- dst.sum +. src.sum;
  if src.max_v > dst.max_v then dst.max_v <- src.max_v
