open Chipsim

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let test_add_remove () =
  let d = Directory.create ~chiplets:16 in
  Directory.add d ~line:7 ~chiplet:3;
  Directory.add d ~line:7 ~chiplet:11;
  Alcotest.(check bool) "holds 3" true (Directory.holds d ~line:7 ~chiplet:3);
  Alcotest.(check int) "two holders" 2 (popcount (Directory.holders d 7));
  Directory.remove d ~line:7 ~chiplet:3;
  Alcotest.(check bool) "removed" false (Directory.holds d ~line:7 ~chiplet:3);
  Directory.remove d ~line:7 ~chiplet:11;
  Alcotest.(check int) "empty entry dropped" 0 (Directory.holders d 7)

let test_exclusive () =
  let d = Directory.create ~chiplets:4 in
  Directory.add d ~line:1 ~chiplet:0;
  Directory.add d ~line:1 ~chiplet:1;
  Alcotest.(check int) "the others held it" 0b11 (Directory.claim d ~line:1 ~chiplet:2);
  Alcotest.(check int) "only one holder" 1 (popcount (Directory.holders d 1));
  Alcotest.(check bool) "it is chiplet 2" true (Directory.holds d ~line:1 ~chiplet:2)

let test_nearest_holder () =
  let topo = Presets.amd_milan () in
  let d = Directory.create ~chiplets:16 in
  (* from chiplet 0: chiplet 1 is same-group, 4 is same-socket, 8 is remote *)
  Directory.add d ~line:5 ~chiplet:8;
  Alcotest.(check (option int)) "remote only" (Some 8)
    (Directory.nearest_holder topo d ~line:5 ~from_chiplet:0);
  Directory.add d ~line:5 ~chiplet:4;
  Alcotest.(check (option int)) "same socket preferred" (Some 4)
    (Directory.nearest_holder topo d ~line:5 ~from_chiplet:0);
  Directory.add d ~line:5 ~chiplet:1;
  Alcotest.(check (option int)) "same group preferred" (Some 1)
    (Directory.nearest_holder topo d ~line:5 ~from_chiplet:0);
  Alcotest.(check (option int)) "self excluded" None
    (Directory.nearest_holder topo d ~line:99 ~from_chiplet:0)

let test_iter () =
  let d = Directory.create ~chiplets:8 in
  Directory.add d ~line:3 ~chiplet:2;
  Directory.add d ~line:3 ~chiplet:5;
  let seen = ref [] in
  Directory.iter d (fun line m -> seen := (line, m) :: !seen);
  Alcotest.(check (list (pair int int))) "line 3 held by 2 and 5"
    [ (3, (1 lsl 2) lor (1 lsl 5)) ]
    !seen

let test_bounds () =
  let d = Directory.create ~chiplets:4 in
  Alcotest.check_raises "chiplet range" (Invalid_argument "Directory: chiplet out of range")
    (fun () -> Directory.add d ~line:0 ~chiplet:4);
  try
    ignore (Directory.create ~chiplets:63);
    Alcotest.fail "accepted 63 chiplets"
  with Invalid_argument _ -> ()

(* The directory before its masks moved into pages: one flat mask array
   indexed by line, grown by doubling, with lines from [dense_limit] up in
   an {!Intmap}.  It is the reference the paged directory must match
   operation by operation. *)
module Dense = struct
  let dense_limit = 1 lsl 22

  type t = { mutable dense : int array; sparse : Intmap.t }

  let create () = { dense = Array.make (1 lsl 16) 0; sparse = Intmap.create ~capacity:16 () }

  let holders t line =
    if line >= 0 && line < Array.length t.dense then t.dense.(line)
    else if line < dense_limit then 0
    else Intmap.get t.sparse line ~absent:0

  let set_mask t line m =
    if line >= 0 && line < Array.length t.dense then t.dense.(line) <- m
    else if line >= 0 && line < dense_limit then begin
      let cur = Array.length t.dense in
      let rec cap c = if c > line then c else cap (c * 2) in
      let bigger = Array.make (min dense_limit (cap cur)) 0 in
      Array.blit t.dense 0 bigger 0 cur;
      t.dense <- bigger;
      t.dense.(line) <- m
    end
    else if m = 0 then Intmap.remove t.sparse line
    else Intmap.set t.sparse line m

  let add t ~line ~chiplet =
    let m = holders t line and bit = 1 lsl chiplet in
    if m land bit = 0 then set_mask t line (m lor bit)

  let remove t ~line ~chiplet =
    let m = holders t line and bit = 1 lsl chiplet in
    if m land bit <> 0 then set_mask t line (m land lnot bit)

  let nearest_in_mask m ~ranks ~row =
    let best = ref (-1) and best_rank = ref max_int in
    for c = 0 to 61 do
      if m land (1 lsl c) <> 0 && ranks.(row + c) < !best_rank then begin
        best_rank := ranks.(row + c);
        best := c
      end
    done;
    !best

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
    let bit = 1 lsl chiplet and m = holders t line in
    if m <> bit then set_mask t line bit;
    m land lnot bit

  let iter t f =
    Array.iteri (fun line m -> if m <> 0 then f line m) t.dense;
    Intmap.iter t.sparse f

  let clear t =
    Array.fill t.dense 0 (Array.length t.dense) 0;
    Intmap.clear t.sparse
end

(* Random operations on three kinds of line: lines of reserved regions
   (pages placed up front), stray lines outside them (pages placed at
   their first holder) and lines past the paged range (the Intmap), with
   an occasional [clear].  After every operation the two directories
   agree on every line's holders, and [iter] lists the same (line, mask)
   sequence. *)
let test_matches_dense_model () =
  let chiplets = 16 in
  let rng = Rng.create 35 in
  let ranks = Array.init (chiplets * chiplets) (fun _ -> Rng.int rng 5) in
  let d = Directory.create ~chiplets and model = Dense.create () in
  let regions = [ (64, 64 * 40); (5000, 5100); (20_000, 20_000) ] in
  List.iter (fun (first, last) -> Directory.reserve d ~first ~last) regions;
  let reserved =
    Array.of_list (List.concat_map (fun (a, b) -> List.init (b - a + 1) (( + ) a)) regions)
  in
  let line () =
    match Rng.int rng 3 with
    | 0 -> reserved.(Rng.int rng (Array.length reserved))
    | 1 -> Rng.int rng (1 lsl 16)
    | _ -> Dense.dense_limit + Rng.int rng 4096
  in
  let touched = Hashtbl.create 1024 in
  let listing iter t =
    let acc = ref [] in
    iter t (fun line m -> acc := (line, m) :: !acc);
    List.rev !acc
  in
  for step = 1 to 1500 do
    let l = line () and chiplet = Rng.int rng chiplets in
    Hashtbl.replace touched l ();
    let what =
      match Rng.int rng 40 with
      | 0 ->
          Directory.clear d;
          Dense.clear model;
          "clear"
      | k when k < 12 ->
          Directory.add d ~line:l ~chiplet;
          Dense.add model ~line:l ~chiplet;
          "add"
      | k when k < 18 ->
          Directory.remove d ~line:l ~chiplet;
          Dense.remove model ~line:l ~chiplet;
          "remove"
      | k when k < 32 ->
          let evicted = if Rng.bool rng then line () else -1 in
          if evicted >= 0 then Hashtbl.replace touched evicted ();
          let row = chiplet * chiplets in
          Alcotest.(check int)
            (Printf.sprintf "step %d: fill's nearest holder" step)
            (Dense.fill model ~line:l ~chiplet ~evicted ~ranks ~row)
            (Directory.fill d ~line:l ~chiplet ~evicted ~ranks ~row);
          "fill"
      | _ ->
          Alcotest.(check int)
            (Printf.sprintf "step %d: claim's other holders" step)
            (Dense.claim model ~line:l ~chiplet)
            (Directory.claim d ~line:l ~chiplet);
          "claim"
    in
    Hashtbl.iter
      (fun l () ->
        let m = Dense.holders model l in
        if Directory.holders d l <> m then
          Alcotest.failf "step %d (%s), line %d: holders %d, dense model %d" step what l
            (Directory.holders d l) m)
      touched;
    let paged = listing Directory.iter d and dense = listing Dense.iter model in
    if paged <> dense then
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "step %d (%s): iter" step what)
        dense paged
  done

(* The ends of the paged range: a reserve that runs past it is accepted,
   the last paged line lists before the first Intmap line, a negative
   line reads empty, and an empty range is refused. *)
let test_paged_range_ends () =
  let d = Directory.create ~chiplets:4 in
  let last = Dense.dense_limit - 1 in
  Directory.reserve d ~first:(last - 3) ~last:(last + 100);
  Directory.add d ~line:(last + 1) ~chiplet:1;
  Directory.add d ~line:last ~chiplet:2;
  Alcotest.(check int) "negative line" 0 (Directory.holders d (-5));
  let seen = ref [] in
  Directory.iter d (fun line m -> seen := (line, m) :: !seen);
  Alcotest.(check (list (pair int int)))
    "iter order" [ (last, 4); (last + 1, 2) ] (List.rev !seen);
  Alcotest.check_raises "bad range" (Invalid_argument "Directory.reserve: bad line range")
    (fun () -> Directory.reserve d ~first:10 ~last:9)

let suite =
  [
    Alcotest.test_case "matches the dense model" `Quick test_matches_dense_model;
    Alcotest.test_case "paged range ends" `Quick test_paged_range_ends;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "set exclusive" `Quick test_exclusive;
    Alcotest.test_case "nearest holder" `Quick test_nearest_holder;
    Alcotest.test_case "iter holders" `Quick test_iter;
    Alcotest.test_case "bounds" `Quick test_bounds;
  ]
