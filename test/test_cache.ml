open Chipsim

let small () = Cache.create ~ways:4 ~size_bytes:4096 ~line_bytes:64 ()
(* 4096/64 = 64 lines, 4 ways -> 16 sets *)

let is_hit r = r = Cache.hit

(* the number of valid lines held *)
let occupancy c =
  let n = ref 0 in
  Cache.iter c (fun _ -> incr n);
  !n

let test_geometry () =
  let c = small () in
  Alcotest.(check int) "ways" 4 (Cache.ways c);
  Alcotest.(check int) "sets" 16 (Cache.sets c);
  Alcotest.(check int) "bytes" 4096 (Cache.size_bytes c)

let test_hit_after_insert () =
  let c = small () in
  Alcotest.(check bool) "first is miss" false (is_hit (Cache.access c 42));
  Alcotest.(check bool) "second is hit" true (is_hit (Cache.access c 42));
  Alcotest.(check bool) "probe" true (Cache.probe c 42);
  Alcotest.(check int) "occupancy" 1 (occupancy c)

let test_lru_eviction () =
  let c = Cache.create ~ways:2 ~size_bytes:128 ~line_bytes:64 () in
  (* one set, two ways *)
  ignore (Cache.access c 1);
  ignore (Cache.access c 2);
  ignore (Cache.access c 1);  (* 1 is now MRU *)
  let victim = Cache.access c 3 in
  if victim < 0 then Alcotest.fail "expected an eviction";
  Alcotest.(check int) "LRU way evicted" 2 victim;
  Alcotest.(check bool) "1 survives" true (Cache.probe c 1)

let test_invalidate () =
  let c = small () in
  ignore (Cache.access c 9);
  Alcotest.(check bool) "present" true (Cache.invalidate c 9);
  Alcotest.(check bool) "absent" false (Cache.invalidate c 9);
  Alcotest.(check bool) "miss after invalidate" false (is_hit (Cache.access c 9))

let test_clear () =
  let c = small () in
  for i = 0 to 63 do
    ignore (Cache.access c i)
  done;
  Cache.clear c;
  Alcotest.(check int) "empty" 0 (occupancy c)

let test_bad_geometry () =
  try
    ignore (Cache.create ~ways:16 ~size_bytes:512 ~line_bytes:64 ());
    Alcotest.fail "accepted cache smaller than one set"
  with Invalid_argument _ -> ()

let test_too_many_ways () =
  ignore (Cache.create ~ways:62 ~size_bytes:(62 * 64) ~line_bytes:64 ());
  try
    ignore (Cache.create ~ways:63 ~size_bytes:(63 * 64) ~line_bytes:64 ());
    Alcotest.fail "accepted 63 ways"
  with Invalid_argument _ -> ()

let prop_occupancy_bounded =
  QCheck.Test.make ~name:"occupancy never exceeds capacity" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 500) (int_range 0 10_000))
    (fun lines ->
      let c = small () in
      List.iter (fun l -> ignore (Cache.access c l)) lines;
      occupancy c <= 64)

let prop_present_after_access =
  QCheck.Test.make ~name:"a just-accessed line probes present" ~count:100
    QCheck.(pair (int_range 0 10_000) (list_of_size (Gen.int_range 0 50) (int_range 0 10_000)))
    (fun (line, prefix) ->
      let c = small () in
      List.iter (fun l -> ignore (Cache.access c l)) prefix;
      ignore (Cache.access c line);
      Cache.probe c line)

(* Reference model for the differential test: a two-array, single-pass
   LRU over (tag, stamp) pairs with the same victim rule as the cache's
   recency order — the first invalid way, else the lowest stamp — and the
   same set hash.  Physical ways matter: a way-count change drops the
   lines held in the disabled ways. *)
module Ref = struct
  type t = {
    sets : int;
    ways : int;
    tags : int array;
    stamps : int array;
    mutable clock : int;
    mutable eff : int;
  }

  let of_cache c =
    let sets = Cache.sets c and ways = Cache.ways c in
    {
      sets;
      ways;
      tags = Array.make (sets * ways) (-1);
      stamps = Array.make (sets * ways) 0;
      clock = 0;
      eff = ways;
    }

  let base t line = ((line lxor (line lsr 16)) land (t.sets - 1)) * t.ways

  let access t line =
    t.clock <- t.clock + 1;
    let base = base t line in
    let found = ref (-1) and victim = ref 0 and best = ref max_int
    and free = ref (-1) and i = ref 0 in
    while !found < 0 && !i < t.eff do
      let tag = t.tags.(base + !i) in
      if tag = line then found := !i
      else begin
        if tag = -1 then (if !free = -1 then free := !i)
        else if t.stamps.(base + !i) < !best then begin
          best := t.stamps.(base + !i);
          victim := !i
        end;
        incr i
      end
    done;
    if !found >= 0 then begin
      t.stamps.(base + !found) <- t.clock;
      Cache.hit
    end
    else begin
      let way = if !free >= 0 then !free else !victim in
      let evicted = if !free >= 0 then Cache.miss else t.tags.(base + way) in
      t.tags.(base + way) <- line;
      t.stamps.(base + way) <- t.clock;
      evicted
    end

  let find t line =
    let base = base t line in
    let rec go i = if i >= t.eff then -1 else if t.tags.(base + i) = line then base + i else go (i + 1) in
    go 0

  let probe t line = find t line >= 0

  let invalidate t line =
    let p = find t line in
    if p >= 0 then t.tags.(p) <- -1;
    p >= 0

  let clear t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.stamps 0 (Array.length t.stamps) 0;
    t.clock <- 0

  (* returns the dropped lines *)
  let set_effective_ways t ways =
    let ways = max 1 (min t.ways ways) in
    let dropped = ref [] in
    for s = 0 to t.sets - 1 do
      for w = ways to t.eff - 1 do
        let tag = t.tags.((s * t.ways) + w) in
        if tag <> -1 then dropped := tag :: !dropped;
        t.tags.((s * t.ways) + w) <- -1
      done
    done;
    t.eff <- ways;
    !dropped

  let occupancy t = Array.fold_left (fun n tag -> if tag <> -1 then n + 1 else n) 0 t.tags
end

type op = Access of int | Invalidate of int | Probe of int | Ways of int | Clear

let pp_op = function
  | Access l -> Printf.sprintf "access %d" l
  | Invalidate l -> Printf.sprintf "invalidate %d" l
  | Probe l -> Printf.sprintf "probe %d" l
  | Ways n -> Printf.sprintf "ways %d" n
  | Clear -> "clear"

(* Lines come from a pool about three times the capacity, so sets see hits,
   conflict evictions and refills; a few sit past 2^16 to exercise the set
   hash.  Way changes shrink and regrow, including past [ways]. *)
let gen_ops ~ways ~lines =
  let open QCheck.Gen in
  let line =
    frequency [ (9, int_bound (3 * lines)); (1, map (fun l -> (1 lsl 16) + l) (int_bound lines)) ]
  in
  let op =
    frequency
      [
        (80, map (fun l -> Access l) line);
        (8, map (fun l -> Invalidate l) line);
        (6, map (fun l -> Probe l) line);
        (4, map (fun n -> Ways n) (int_range 0 (ways + 1)));
        (1, return Clear);
      ]
  in
  list_size (int_range 500 1000) op

let prop_oracle ways =
  let sets = 4 in
  QCheck.Test.make ~count:20
    ~name:(Printf.sprintf "agrees with the reference LRU, %d-way" ways)
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       (gen_ops ~ways ~lines:(sets * ways)))
    (fun ops ->
      let c = Cache.create ~ways ~size_bytes:(sets * ways * 64) ~line_bytes:64 () in
      let r = Ref.of_cache c in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Access l -> Cache.access c l = Ref.access r l
            | Invalidate l -> Cache.invalidate c l = Ref.invalidate r l
            | Probe l -> Cache.probe c l = Ref.probe r l
            | Ways n ->
                let dropped = ref [] in
                Cache.set_effective_ways c n ~on_drop:(fun l -> dropped := l :: !dropped);
                let expected = Ref.set_effective_ways r n in
                Cache.effective_ways c = r.Ref.eff
                && List.sort compare !dropped = List.sort compare expected
            | Clear ->
                Cache.clear c;
                Ref.clear r;
                true
          in
          same && occupancy c = Ref.occupancy r)
        ops)

let suite =
  [
    Alcotest.test_case "geometry" `Quick test_geometry;
    Alcotest.test_case "hit after insert" `Quick test_hit_after_insert;
    Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
    Alcotest.test_case "invalidate" `Quick test_invalidate;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "bad geometry" `Quick test_bad_geometry;
    Alcotest.test_case "too many ways" `Quick test_too_many_ways;
    QCheck_alcotest.to_alcotest prop_occupancy_bounded;
    QCheck_alcotest.to_alcotest prop_present_after_access;
  ]
  @ List.map (fun w -> QCheck_alcotest.to_alcotest (prop_oracle w)) [ 1; 2; 3; 4; 8; 12; 16 ]
