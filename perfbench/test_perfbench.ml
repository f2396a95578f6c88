(* Tests for the benchmark's own helpers: order statistics, exposure
   times and failure accounting. *)

open Perfbench

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.check close "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "single" 7. (Stats.median [| 7. |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median [||]))

(* Expected values from Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1 of 1..10" 2.75 q1;
  Alcotest.check close "q2 of 1..10" 5.5 q2;
  Alcotest.check close "q3 of 1..10" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles [| 1.; 2. |] in
  Alcotest.check close "q1 of 2" 0.75 q1;
  Alcotest.check close "q2 of 2" 1.5 q2;
  Alcotest.check close "q3 of 2" 2.25 q3;
  let q1, _, q3 = Stats.quartiles [| 8.; 1.; 4.; 2.; 6. |] in
  Alcotest.check close "q1 unsorted" 1.5 q1;
  Alcotest.check close "q3 unsorted" 7. q3

let test_percentile () =
  let xs = Array.init 101 float_of_int in
  Alcotest.check close "p50" 50. (Stats.percentile xs 50.);
  Alcotest.check close "p99" 99. (Stats.percentile xs 99.);
  Alcotest.check close "interpolated" 2.5 (Stats.percentile [| 0.; 5. |] 50.);
  Alcotest.check close "p100 is max" 100. (Stats.percentile xs 100.)

let test_tail () =
  let uniform n = Array.init n (fun i -> float_of_int i) in
  Alcotest.check close "1000 samples reach p99" 99. (fst (Stats.tail (uniform 1000)));
  Alcotest.check close "999 samples stop at p95" 95. (fst (Stats.tail (uniform 999)));
  Alcotest.check close "10000 samples reach p99.9" 99.9 (fst (Stats.tail (uniform 10000)));
  Alcotest.check close "200 samples reach p95" 95. (fst (Stats.tail (uniform 200)));
  Alcotest.check close "20 samples reach p50" 50. (fst (Stats.tail (uniform 20)));
  let p, v = Stats.tail [| 3.; 9.; 1. |] in
  Alcotest.check close "too few: max" 100. p;
  Alcotest.check close "too few: max value" 9. v

let test_clock () =
  let c = Exposure.clock () in
  Exposure.note c ~findings:0 ~at:0.1;
  Exposure.note c ~findings:1 ~at:0.5;
  Exposure.note c ~findings:1 ~at:0.7;
  Exposure.note c ~findings:3 ~at:1.2;
  Exposure.note c ~findings:4 ~at:2.0;
  Alcotest.(check (list close)) "one time per finding, discovery order"
    [ 0.5; 1.2; 1.2; 2.0 ] (Exposure.times c)

let test_per_case () =
  let exposures =
    Exposure.per_case ~cases:[ "A"; "B"; "C"; "D"; "E" ]
      ~finding_names:[ [ "B"; "B" ]; [ "A"; "A" ]; [ "B"; "E" ]; [ "C"; "A" ] ]
      ~times:[ 0.5; 1.2; 1.2; 2.0 ]
  in
  Alcotest.(check (list (pair string (option close))))
    "first finding naming each case, case order"
    [ ("A", Some 1.2); ("B", Some 0.5); ("C", Some 2.0); ("D", None); ("E", Some 1.2) ]
    exposures;
  Alcotest.check_raises "misaligned lists"
    (Invalid_argument "Exposure.per_case: findings and times differ in length") (fun () ->
      ignore (Exposure.per_case ~cases:[ "A" ] ~finding_names:[ [ "A" ] ] ~times:[]))

let test_exposure_stats () =
  let p50, all =
    Exposure.exposure_stats ~censor:9. [ ("A", Some 3.); ("B", Some 1.); ("C", Some 2.) ]
  in
  Alcotest.check close "p50" 2. p50;
  Alcotest.check close "all" 3. all;
  let p50, all = Exposure.exposure_stats ~censor:9. [ ("A", Some 1.); ("B", None) ] in
  Alcotest.check close "missing case censored in p50" 5. p50;
  Alcotest.check close "missing case censored in all" 9. all

let test_tally () =
  let t = Exposure.of_exposures [ ("A", Some 1.); ("B", None); ("C", Some 2.) ] in
  Alcotest.(check (pair int int)) "hunt: case is an attempt" (3, 1) (t.attempted, t.failed);
  let s = Exposure.add (Exposure.of_soak ~violations:0) (Exposure.of_soak ~violations:4) in
  Alcotest.(check (pair int int)) "soak: run is an attempt" (2, 1) (s.attempted, s.failed);
  let z = Exposure.add Exposure.zero t in
  Alcotest.(check (pair int int)) "zero is neutral" (3, 1) (z.attempted, z.failed);
  Alcotest.check close "share" 0.25 (Exposure.share 1 4);
  Alcotest.check close "share of nothing" 0. (Exposure.share 0 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail percentile has 10 beyond" `Quick test_tail;
        ] );
      ( "exposure",
        [
          Alcotest.test_case "progress increments to finding times" `Quick test_clock;
          Alcotest.test_case "first finding per case" `Quick test_per_case;
          Alcotest.test_case "p50 and all-exposed" `Quick test_exposure_stats;
          Alcotest.test_case "failure accounting" `Quick test_tally;
        ] );
    ]
