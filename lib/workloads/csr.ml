open Chipsim

type t = {
  n : int;
  m : int;
  row_ptr : int array;
  col : int array;
  weight : int array;
  sim_row : Simmem.region;
  sim_col : Simmem.region;
  sim_weight : Simmem.region;
}

(* Regions are allocated weight, column, row: the order every recorded
   run placed them in, which simulated addresses follow. *)
let with_regions ~alloc ~n ~m ~row_ptr ~col ~weight =
  let sim_weight = alloc ~elt_bytes:8 ~count:(max m 1) in
  let sim_col = alloc ~elt_bytes:8 ~count:(max m 1) in
  let sim_row = alloc ~elt_bytes:8 ~count:(n + 1) in
  { n; m; row_ptr; col; weight; sim_row; sim_col; sim_weight }

let of_kronecker ~alloc ?(weighted = false) ?(seed = 7) kron =
  let src = kron.Kronecker.src and dst = kron.Kronecker.dst in
  let half = Array.length src in
  if Array.length dst <> half then invalid_arg "Csr.of_kronecker: src/dst length mismatch";
  let n = Kronecker.num_vertices kron and m = 2 * half in
  (* symmetrised degrees: edge (u, v) leaves u, and v in reverse *)
  let row_ptr = Array.make (n + 1) 0 in
  for e = 0 to half - 1 do
    let u = src.(e) and v = dst.(e) in
    if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Csr.of_kronecker: vertex out of range";
    row_ptr.(u + 1) <- row_ptr.(u + 1) + 1;
    row_ptr.(v + 1) <- row_ptr.(v + 1) + 1
  done;
  for i = 1 to n do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  (* a stable scatter over every forward edge, then every reverse one;
     weights are drawn in that order too *)
  let col = Array.make m 0 and weight = Array.make m 1 in
  let cursor = Array.sub row_ptr 0 n in
  let rng = Rng.create seed in
  let scatter from_ to_ =
    for e = 0 to half - 1 do
      let u = from_.(e) in
      let c = cursor.(u) in
      col.(c) <- to_.(e);
      if weighted then weight.(c) <- 1 + Rng.int rng 255;
      cursor.(u) <- c + 1
    done
  in
  scatter src dst;
  scatter dst src;
  with_regions ~alloc ~n ~m ~row_ptr ~col ~weight

let place ~alloc t =
  with_regions ~alloc ~n:t.n ~m:t.m ~row_ptr:t.row_ptr ~col:t.col ~weight:t.weight

let degree t u = t.row_ptr.(u + 1) - t.row_ptr.(u)

let default_source t =
  let rec go v = if v >= t.n - 1 || degree t v > 0 then v else go (v + 1) in
  go 0

let out_neighbors t u f =
  for e = t.row_ptr.(u) to t.row_ptr.(u + 1) - 1 do
    f t.col.(e) t.weight.(e)
  done

let read_adj ctx t u =
  Engine.Sched.Ctx.read ctx t.sim_row u;
  let lo = t.row_ptr.(u) and hi = t.row_ptr.(u + 1) in
  if hi > lo then Engine.Sched.Ctx.read_range ctx t.sim_col ~lo ~hi
