type t = { scale : int; edge_factor : int; src : int array; dst : int array }

(* Standard Graph500 R-MAT parameters. *)
let pa = 0.57
let pb = 0.19
let pc = 0.19

(* A bit draw [Rng.float rng 1.0 < p] is [Rng.bits53 rng < p·2^53]: each
   cumulative probability lies in [0.5, 1), so it is a multiple of 2^-53
   and its threshold an exact integer. *)
let threshold p =
  let x = p *. 0x1p53 in
  assert (Float.of_int (Float.to_int x) = x);
  Float.to_int x

let t_a = threshold pa
let t_ab = threshold (pa +. pb)
let t_abc = threshold (pa +. pb +. pc)

let generate ?(seed = 42) ?(edge_factor = 16) ~scale () =
  if scale < 1 then invalid_arg "Kronecker.generate: scale must be >= 1";
  if edge_factor < 1 then invalid_arg "Kronecker.generate: edge_factor must be >= 1";
  let n = 1 lsl scale in
  let m = edge_factor * n in
  let rng = Chipsim.Rng.create seed in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let i = ref 0 in
  while !i < m do
    let u = ref 0 and v = ref 0 in
    for _bit = 0 to scale - 1 do
      (* the quadrant without branches: each [ge_*] is 1 iff the draw is
         at or above that threshold (draws are below 2^53, so the
         difference's sign is bit 62) *)
      let x = Chipsim.Rng.bits53 rng in
      let ge_a = 1 + ((x - t_a) asr 62)
      and ge_ab = 1 + ((x - t_ab) asr 62)
      and ge_abc = 1 + ((x - t_abc) asr 62) in
      u := (!u lsl 1) lor ge_ab;
      v := (!v lsl 1) lor (ge_a lxor ge_ab lxor ge_abc)
    done;
    (* a self-loop is overwritten by the next edge *)
    src.(!i) <- !u;
    dst.(!i) <- !v;
    i := !i + Bool.to_int (!u <> !v)
  done;
  (* Graph500 permutes vertex labels to break generator locality. *)
  let perm = Array.init n (fun j -> j) in
  Chipsim.Rng.shuffle rng perm;
  for j = 0 to m - 1 do
    src.(j) <- perm.(src.(j));
    dst.(j) <- perm.(dst.(j))
  done;
  { scale; edge_factor; src; dst }

let num_vertices t = 1 lsl t.scale
