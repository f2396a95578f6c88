(* Counters, gauges, series, histogram percentiles and the JSON
   snapshot. *)

let counters_accumulate () =
  let m = Dsim.Metrics.create () in
  Dsim.Metrics.incr m "a";
  Dsim.Metrics.incr m "a";
  Dsim.Metrics.add m "a" 3;
  Alcotest.(check int) "a=5" 5 (Dsim.Metrics.count m "a");
  Alcotest.(check int) "missing=0" 0 (Dsim.Metrics.count m "nope")

let counters_listing_sorted () =
  let m = Dsim.Metrics.create () in
  Dsim.Metrics.incr m "z";
  Dsim.Metrics.incr m "a";
  Alcotest.(check (list (pair string int))) "sorted" [ ("a", 1); ("z", 1) ]
    (Dsim.Metrics.counters m)

let histogram_stats () =
  let m = Dsim.Metrics.create () in
  List.iter (Dsim.Metrics.observe m "lat") [ 1.0; 2.0; 3.0; 4.0; 100.0 ];
  Alcotest.(check int) "samples" 5 (Dsim.Metrics.samples m "lat");
  Alcotest.(check (float 0.001)) "mean" 22.0 (Dsim.Metrics.mean m "lat");
  Alcotest.(check (float 0.001)) "p50" 3.0 (Dsim.Metrics.percentile m "lat" 0.5);
  Alcotest.(check (float 0.001)) "p99" 100.0 (Dsim.Metrics.percentile m "lat" 0.99)

let empty_histogram_zero () =
  let m = Dsim.Metrics.create () in
  Alcotest.(check (float 0.0)) "mean" 0.0 (Dsim.Metrics.mean m "none");
  Alcotest.(check (float 0.0)) "p99" 0.0 (Dsim.Metrics.percentile m "none" 0.99)

let reset_clears () =
  let m = Dsim.Metrics.create () in
  Dsim.Metrics.incr m "a";
  Dsim.Metrics.observe m "h" 1.0;
  Dsim.Metrics.reset m;
  Alcotest.(check int) "counter cleared" 0 (Dsim.Metrics.count m "a");
  Alcotest.(check int) "histogram cleared" 0 (Dsim.Metrics.samples m "h")

let percentile_extremes () =
  let m = Dsim.Metrics.create () in
  List.iter (Dsim.Metrics.observe m "h") [ 5.0; 1.0; 3.0 ];
  Alcotest.(check (float 0.0)) "p=0 is the minimum" 1.0 (Dsim.Metrics.percentile m "h" 0.0);
  Alcotest.(check (float 0.0)) "p=1 is the maximum" 5.0 (Dsim.Metrics.percentile m "h" 1.0);
  (* Out-of-range probabilities clamp instead of raising. *)
  Alcotest.(check (float 0.0)) "p<0 clamps" 1.0 (Dsim.Metrics.percentile m "h" (-1.0));
  Alcotest.(check (float 0.0)) "p>1 clamps" 5.0 (Dsim.Metrics.percentile m "h" 2.0)

let observe_after_percentile_invalidates_cache () =
  let m = Dsim.Metrics.create () in
  List.iter (Dsim.Metrics.observe m "h") [ 1.0; 2.0; 3.0 ];
  Alcotest.(check (float 0.0)) "before" 3.0 (Dsim.Metrics.percentile m "h" 1.0);
  Dsim.Metrics.observe m "h" 10.0;
  Alcotest.(check (float 0.0)) "after" 10.0 (Dsim.Metrics.percentile m "h" 1.0);
  Alcotest.(check (float 0.001)) "mean tracks" 4.0 (Dsim.Metrics.mean m "h")

let histogram_growth () =
  let m = Dsim.Metrics.create () in
  for i = 1 to 10_000 do
    Dsim.Metrics.observe m "big" (float_of_int i)
  done;
  Alcotest.(check int) "all samples kept" 10_000 (Dsim.Metrics.samples m "big");
  Alcotest.(check (float 0.0)) "max" 10_000.0 (Dsim.Metrics.percentile m "big" 1.0);
  Alcotest.(check (float 0.001)) "mean" 5000.5 (Dsim.Metrics.mean m "big")

let gauges_set_and_add () =
  let m = Dsim.Metrics.create () in
  Dsim.Metrics.set_gauge m "depth" 4.0;
  Dsim.Metrics.add_gauge m "depth" (-1.0);
  Dsim.Metrics.add_gauge m "other" 2.5;
  Alcotest.(check (float 0.0)) "set+add" 3.0 (Dsim.Metrics.gauge m "depth");
  Alcotest.(check (float 0.0)) "missing=0" 0.0 (Dsim.Metrics.gauge m "nope");
  Alcotest.(check (list (pair string (float 0.0)))) "sorted listing"
    [ ("depth", 3.0); ("other", 2.5) ]
    (Dsim.Metrics.gauges m)

let series_chronological () =
  let m = Dsim.Metrics.create () in
  Dsim.Metrics.sample m "lag" ~time:100 1.0;
  Dsim.Metrics.sample m "lag" ~time:200 5.0;
  Dsim.Metrics.sample m "lag" ~time:300 2.0;
  Alcotest.(check (list (pair int (float 0.0)))) "in time order"
    [ (100, 1.0); (200, 5.0); (300, 2.0) ]
    (Dsim.Metrics.series m "lag");
  Alcotest.(check (list string)) "names" [ "lag" ] (Dsim.Metrics.series_names m)

let json_snapshot_parses () =
  let m = Dsim.Metrics.create () in
  Dsim.Metrics.incr m "commits";
  Dsim.Metrics.set_gauge m "lag.api-1" 7.0;
  List.iter (Dsim.Metrics.observe m "latency") [ 500.0; 1200.0 ];
  Dsim.Metrics.sample m "lag.api-1" ~time:100_000 7.0;
  match Dsim.Json.parse (Dsim.Json.to_string (Dsim.Metrics.to_json m)) with
  | Error msg -> Alcotest.failf "snapshot does not parse: %s" msg
  | Ok j ->
      let section name =
        match Dsim.Json.member name j with
        | Some s -> s
        | None -> Alcotest.failf "snapshot lost %s" name
      in
      (match Dsim.Json.member "commits" (section "counters") with
      | Some v -> Alcotest.(check (option int)) "counter" (Some 1) (Dsim.Json.to_int v)
      | None -> Alcotest.fail "counter missing");
      (match Dsim.Json.member "lag.api-1" (section "gauges") with
      | Some v -> Alcotest.(check (option (float 0.0))) "gauge" (Some 7.0) (Dsim.Json.to_float v)
      | None -> Alcotest.fail "gauge missing");
      (match Dsim.Json.member "latency" (section "histograms") with
      | Some h -> (
          match Dsim.Json.member "count" h with
          | Some v -> Alcotest.(check (option int)) "histogram count" (Some 2) (Dsim.Json.to_int v)
          | None -> Alcotest.fail "histogram summary missing count")
      | None -> Alcotest.fail "histogram missing");
      match Dsim.Json.member "lag.api-1" (section "series") with
      | Some (Dsim.Json.List [ Dsim.Json.List [ t; v ] ]) ->
          Alcotest.(check (option int)) "series time" (Some 100_000) (Dsim.Json.to_int t);
          Alcotest.(check (option (float 0.0))) "series value" (Some 7.0) (Dsim.Json.to_float v)
      | _ -> Alcotest.fail "series missing or ill-shaped"

(* Handles name a metric once: nothing shows until the first update, a
   handle and the name-based calls share one metric, and a handle taken
   before a reset writes to the metric the reset started afresh. *)
let handles_share_named_metrics () =
  let m = Dsim.Metrics.create () in
  let c = Dsim.Metrics.Counter.make m "rpc.api-1" in
  let g = Dsim.Metrics.Gauge.make m "pipe.inflight.kubelet-1" in
  let h = Dsim.Metrics.Histogram.make m "watch.latency.kubelet-1" in
  let s = Dsim.Metrics.Series.make m "lag.api-1" in
  let empty = Dsim.Json.to_string (Dsim.Metrics.to_json (Dsim.Metrics.create ())) in
  Alcotest.(check string) "unused handles leave no metric" empty
    (Dsim.Json.to_string (Dsim.Metrics.to_json m));
  Dsim.Metrics.Counter.incr c;
  Dsim.Metrics.incr m "rpc.api-1";
  Dsim.Metrics.Gauge.add g 1.0;
  Dsim.Metrics.add_gauge m "pipe.inflight.kubelet-1" 2.0;
  Dsim.Metrics.Gauge.add g (-1.0);
  Dsim.Metrics.Histogram.observe h 4.0;
  Dsim.Metrics.observe m "watch.latency.kubelet-1" 8.0;
  Dsim.Metrics.Series.sample s ~time:100 1.0;
  Dsim.Metrics.sample m "lag.api-1" ~time:200 3.0;
  let named = Dsim.Metrics.create () in
  Dsim.Metrics.add named "rpc.api-1" 2;
  Dsim.Metrics.set_gauge named "pipe.inflight.kubelet-1" 2.0;
  List.iter (Dsim.Metrics.observe named "watch.latency.kubelet-1") [ 4.0; 8.0 ];
  Dsim.Metrics.sample named "lag.api-1" ~time:100 1.0;
  Dsim.Metrics.sample named "lag.api-1" ~time:200 3.0;
  Alcotest.(check string) "same snapshot as name-based updates"
    (Dsim.Json.to_string (Dsim.Metrics.to_json named))
    (Dsim.Json.to_string (Dsim.Metrics.to_json m));
  Dsim.Metrics.reset m;
  Dsim.Metrics.Counter.incr c;
  Dsim.Metrics.Series.sample s ~time:300 5.0;
  Alcotest.(check int) "counter restarts after reset" 1 (Dsim.Metrics.count m "rpc.api-1");
  Alcotest.(check (list (pair int (float 0.0)))) "series restarts after reset" [ (300, 5.0) ]
    (Dsim.Metrics.series m "lag.api-1")

let qcheck_percentile_is_member =
  QCheck.Test.make ~name:"percentile returns an observed sample" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range 0.0 1000.0)) (float_range 0.01 1.0))
    (fun (samples, p) ->
      let m = Dsim.Metrics.create () in
      List.iter (Dsim.Metrics.observe m "h") samples;
      List.mem (Dsim.Metrics.percentile m "h" p) samples)

let suites =
  [
    ( "metrics",
      [
        Alcotest.test_case "counters accumulate" `Quick counters_accumulate;
        Alcotest.test_case "counters listing sorted" `Quick counters_listing_sorted;
        Alcotest.test_case "histogram stats" `Quick histogram_stats;
        Alcotest.test_case "empty histogram zero" `Quick empty_histogram_zero;
        Alcotest.test_case "reset clears" `Quick reset_clears;
        Alcotest.test_case "percentile extremes" `Quick percentile_extremes;
        Alcotest.test_case "observe invalidates cache" `Quick
          observe_after_percentile_invalidates_cache;
        Alcotest.test_case "histogram growth" `Quick histogram_growth;
        Alcotest.test_case "gauges set and add" `Quick gauges_set_and_add;
        Alcotest.test_case "handles share named metrics" `Quick handles_share_named_metrics;
        Alcotest.test_case "series chronological" `Quick series_chronological;
        Alcotest.test_case "json snapshot parses" `Quick json_snapshot_parses;
        Qcheck_util.to_alcotest qcheck_percentile_is_member;
      ] );
  ]
