open Chipsim

let test_determinism () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits53 a) (Rng.bits53 b)
  done

let test_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different first draw" true (Rng.bits53 a <> Rng.bits53 b)

let test_shuffle_permutes () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let prop_int_in_bounds =
  QCheck.Test.make ~name:"int stays in [0, bound)" ~count:500
    QCheck.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"float stays in [0, bound)" ~count:500
    QCheck.(pair (float_range 0.001 1e6) small_int)
    (fun (bound, seed) ->
      let rng = Rng.create seed in
      let v = Rng.float rng bound in
      v >= 0.0 && v < bound)

let test_int_bad_bound () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

(* [bits53] is the draw [float] scales, bit for bit *)
let test_bits53_is_float () =
  let a = Rng.create 3 and b = Rng.create 3 in
  for i = 1 to 10_000 do
    let f = Rng.float a 1.0 and x = Rng.bits53 b in
    if Int64.bits_of_float f <> Int64.bits_of_float (float_of_int x /. 0x1p53) then
      Alcotest.failf "draw %d: float %h, bits53 %d" i f x
  done


(* The first draws of every entry point for a spread of seeds (max_int
   and a negative one included), each from a fresh generator.  Recorded
   when the state was a boxed int64 field; the byte-buffer state must
   reproduce the stream bit for bit. *)
type golden = {
  seed : int;
  bits53 : int list;
  ints : int list;  (* [int _ 1000] *)
  floats : float list;  (* [float _ 1.0] *)
  bools : bool list;
  shuffle : int array;  (* [0 .. 9] shuffled *)
}

let goldens =
  [
    {
      seed = 0;
      bits53 = [ 7956156453446585; 3886858653415212; 238094247788840 ];
      ints = [ 883; 925; 419 ];
      floats = [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6 ];
      bools = [ true; false; true; false; true; false; true; false ];
      shuffle = [| 6; 7; 5; 8; 2; 4; 1; 9; 0; 3 |];
    };
    {
      seed = 1;
      bits53 = [ 6753131800803418; 3354221761027669; 3947710474051195 ];
      ints = [ 492; 673; 881 ];
      floats = [ 0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2 ];
      bools = [ false; true; true; false; true; false; false; false ];
      shuffle = [| 8; 6; 7; 4; 5; 9; 3; 1; 0; 2 |];
    };
    {
      seed = 42;
      bits53 = [ 5369361458086087; 1444442999664155; 1498778176012342 ];
      ints = [ 570; 797; 285 ];
      floats = [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3 ];
      bools = [ true; true; true; false; true; true; true; false ];
      shuffle = [| 4; 1; 8; 6; 7; 3; 2; 5; 9; 0 |];
    };
    {
      seed = (-7);
      bits53 = [ 5756433961048419; 1230989054963471; 7696952172787657 ];
      ints = [ 688; 162; 529 ];
      floats = [ 0x1.47372396bd963p-1; 0x1.17e4fe55fbc3cp-3; 0x1.b5856541cb7c9p-1 ];
      bools = [ false; true; true; false; false; true; true; false ];
      shuffle = [| 6; 0; 3; 9; 4; 5; 7; 1; 2; 8 |];
    };
    {
      seed = max_int;
      bits53 = [ 1614468549543051; 6171774077249267; 6828621587828222 ];
      ints = [ 601; 811; 915 ];
      floats = [ 0x1.6f1670196122cp-3; 0x1.5ed32218226f3p-1; 0x1.842985c0c4dfep-1 ];
      bools = [ true; false; true; true; false; true; true; true ];
      shuffle = [| 4; 9; 0; 6; 5; 2; 7; 8; 3; 1 |];
    };
  ]

let test_golden_streams () =
  List.iter
    (fun g ->
      let draws k f = List.init k (fun _ -> f ()) in
      let name what = Printf.sprintf "seed %d: %s" g.seed what in
      let r = Rng.create g.seed in
      Alcotest.(check (list int)) (name "bits53") g.bits53 (draws 3 (fun () -> Rng.bits53 r));
      let r = Rng.create g.seed in
      Alcotest.(check (list int)) (name "int") g.ints (draws 3 (fun () -> Rng.int r 1000));
      let r = Rng.create g.seed in
      List.iter2
        (fun want got ->
          Alcotest.(check int64) (name "float bits") (Int64.bits_of_float want)
            (Int64.bits_of_float got))
        g.floats
        (draws 3 (fun () -> Rng.float r 1.0));
      let r = Rng.create g.seed in
      Alcotest.(check (list bool)) (name "bool") g.bools (draws 8 (fun () -> Rng.bool r));
      let r = Rng.create g.seed in
      let a = Array.init 10 Fun.id in
      Rng.shuffle r a;
      Alcotest.(check (array int)) (name "shuffle") g.shuffle a)
    goldens

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "golden streams" `Quick test_golden_streams;
    Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
    Alcotest.test_case "bad bound" `Quick test_int_bad_bound;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_float_in_bounds;
    Alcotest.test_case "bits53 is float's draw" `Quick test_bits53_is_float;
  ]
