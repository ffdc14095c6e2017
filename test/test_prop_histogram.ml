(* Property tests for the serving layer's log-bucketed histogram: quantile
   ordering, bucket-width accuracy against exact sorted quantiles, and the
   junk-sample (negative / NaN / infinite) guard. *)

let growth = 1.12

let exact_quantile sorted q =
  let n = Array.length sorted in
  let k = max 1 (int_of_float (ceil (q *. float_of_int n))) in
  sorted.(min (n - 1) (k - 1))

(* p50 <= p99 <= p999 and every quantile is bounded by the largest sample's
   bucket — even when the stream contains junk *)
let junk_sample =
  QCheck.Gen.(
    frequency
      [
        (6, float_range 0.5 1e9);
        (1, return nan);
        (1, return infinity);
        (1, float_range (-100.0) 0.0);
      ])

let prop_ordering =
  QCheck.Test.make ~name:"quantiles are ordered (junk tolerated)" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 200) junk_sample))
    (fun samples ->
      let h = Serving.Histogram.create () in
      List.iter (Serving.Histogram.observe h) samples;
      let p50 = Serving.Histogram.p50 h in
      let p99 = Serving.Histogram.p99 h in
      let p999 = Serving.Histogram.p999 h in
      Serving.Histogram.count h = List.length samples
      && p50 <= p99 && p99 <= p999
      && p999 <= Serving.Histogram.max_value h)

(* against clean samples the reported quantile brackets the exact sorted
   quantile within one geometric bucket (relative error <= growth - 1) *)
let prop_accuracy =
  QCheck.Test.make ~name:"quantiles within one bucket of exact" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 300) (float_range 1.0 1e9))
    (fun samples ->
      let h = Serving.Histogram.create () in
      List.iter (Serving.Histogram.observe h) samples;
      let sorted = Array.of_list samples in
      Array.sort compare sorted;
      List.for_all
        (fun (q, quantile) ->
          let exact = exact_quantile sorted q in
          let reported = quantile h in
          reported >= exact *. (1.0 -. 1e-9)
          && reported <= exact *. growth *. (1.0 +. 1e-9))
        Serving.Histogram.[ (0.5, p50); (0.95, p95); (0.99, p99); (0.999, p999) ])

(* the overflow / NaN guard: absurd samples land in the first or top
   bucket instead of corrupting the counts array *)
let test_nan_and_overflow () =
  let h = Serving.Histogram.create () in
  Serving.Histogram.observe h nan;
  Serving.Histogram.observe h (-5.0);
  Serving.Histogram.observe h infinity;
  Serving.Histogram.observe h 1e300;
  Alcotest.(check int) "all junk samples counted" 4 (Serving.Histogram.count h);
  Alcotest.(check bool) "quantiles stay finite" true
    (Float.is_finite (Serving.Histogram.p50 h)
    && Float.is_finite (Serving.Histogram.p999 h))

let suite =
  Alcotest.test_case "nan and overflow guard" `Quick test_nan_and_overflow
  :: List.map QCheck_alcotest.to_alcotest [ prop_ordering; prop_accuracy ]
