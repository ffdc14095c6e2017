(* Small order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* nearest-rank percentile: the ceil(q * n)-th smallest sample, exact for
   the sojourn-time quantiles the sim metrics report *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))
