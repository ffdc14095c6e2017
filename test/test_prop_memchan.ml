(* Property tests for the memory-channel ring, locking in the wraparound
   aliasing fix: stale accesses (older than the ring's retained window)
   are counted but never clobber a newer bin's demand history, and byte
   accounting balances for any access pattern. *)

open Chipsim

let line_bytes = 64
let bin_ns = 1000.0
let slots = Test_memchan.slots
let access_ns = Test_memchan.access_ns

let mk () =
  Memchan.create ~nodes:1 ~channels_per_node:2 ~bytes_per_ns_per_channel:1.0
    ~line_bytes ()

let now_of_bin bin = (float_of_int bin *. bin_ns) +. 10.0

(* any interleaving of in-order, lagging and wrapped accesses keeps the
   ring's conservation invariants and loses no bytes: bins sit in the
   first four slots of the ring's first four laps, so slots are shared
   across laps *)
let prop_conservation =
  QCheck.Test.make ~name:"ring conserves bytes under any access pattern"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (pair (int_range 0 3) (int_range 0 3)))
    (fun bins ->
      let c = mk () in
      List.iter
        (fun (lap, off) ->
          let bin = (lap * slots) + off in
          ignore (access_ns c ~node:0 ~now_ns:(now_of_bin bin) ~base_ns:50.0))
        bins;
      Memchan.check_invariants c;
      Memchan.bytes_served c ~node:0 = line_bytes * List.length bins)

(* an access aliasing a recycled slot (same slot index, [slots * k] bins
   behind the slot's current occupant) must count as stale and leave the
   newer bin's demand untouched *)
let prop_stale_does_not_clobber =
  QCheck.Test.make
    ~name:"stale access counts without clobbering the newer bin" ~count:200
    QCheck.(triple (int_range 0 8) (int_range 1 3) (int_range 1 20))
    (fun (low_bin, lag_rings, burst) ->
      let high_bin = low_bin + (slots * lag_rings) in
      let c = mk () in
      let now_high = now_of_bin high_bin in
      for _ = 1 to burst do
        ignore (access_ns c ~node:0 ~now_ns:now_high ~base_ns:50.0)
      done;
      let load_before = Memchan.load_ratio c ~node:0 ~now_ns:now_high in
      ignore
        (access_ns c ~node:0 ~now_ns:(now_of_bin low_bin) ~base_ns:50.0);
      Memchan.check_invariants c;
      Memchan.stale_accesses c = 1
      && abs_float (Memchan.load_ratio c ~node:0 ~now_ns:now_high -. load_before)
         < 1e-9
      && Memchan.bytes_served c ~node:0 = line_bytes * (burst + 1))

(* accesses inside the retained window are never misclassified as stale,
   also once the ring has wrapped *)
let prop_retained_window_not_stale =
  QCheck.Test.make ~name:"retained-window accesses are never stale" ~count:200
    QCheck.(pair (int_range slots (3 * slots)) (int_range 1 (slots - 1)))
    (fun (high_bin, back) ->
      let c = mk () in
      ignore
        (access_ns c ~node:0 ~now_ns:(now_of_bin high_bin) ~base_ns:50.0);
      ignore
        (access_ns c ~node:0
           ~now_ns:(now_of_bin (high_bin - back))
           ~base_ns:50.0);
      Memchan.check_invariants c;
      Memchan.stale_accesses c = 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_conservation; prop_stale_does_not_clobber; prop_retained_window_not_stale ]
