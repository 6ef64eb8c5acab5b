(* Tests for the benchmark's own arithmetic. *)

open Perfbench_stats

let close = Alcotest.float 1e-12

let test_reportable () =
  (* Ten samples beyond the nearest-rank sample: p50 from 20, p90 from
     100, p99 from 1000. *)
  Alcotest.(check bool) "p50 at 20" true (Stats.reportable ~q:0.5 20);
  Alcotest.(check bool) "p50 at 19" false (Stats.reportable ~q:0.5 19);
  Alcotest.(check bool) "p90 at 100" true (Stats.reportable ~q:0.9 100);
  Alcotest.(check bool) "p90 at 99" false (Stats.reportable ~q:0.9 99);
  Alcotest.(check bool) "p99 at 1000" true (Stats.reportable ~q:0.99 1000);
  Alcotest.(check bool) "p99 at 999" false (Stats.reportable ~q:0.99 999);
  Alcotest.(check bool) "p99.9 at 10000" true (Stats.reportable ~q:0.999 10000);
  Alcotest.(check int) "beyond p90 of 100" 10 (Stats.beyond ~q:0.9 100);
  Alcotest.(check int) "rank of p99 over 1000 (float rounding)" 990
    (Stats.nearest_rank ~q:0.99 1000)

let test_highest () =
  let qs = [ 0.5; 0.9; 0.99; 0.999 ] in
  let check msg expected n =
    Alcotest.(check (option (float 0.0))) msg expected (Stats.highest_reportable qs n)
  in
  check "too few" None 19;
  check "p50" (Some 0.5) 20;
  check "p90" (Some 0.9) 140;
  check "p99" (Some 0.99) 4987;
  check "p99.9" (Some 0.999) 30000;
  Alcotest.(check (option (float 0.0))) "order of the list does not matter"
    (Some 0.9) (Stats.highest_reportable [ 0.99; 0.9; 0.5 ] 500)

let test_self_times () =
  (* run [0,10] > step [1,9] > collection [2,8] > mark [2,3], compact
     [3,7] > mover [4,6]; a second step [9,10] under run. *)
  let parent = [| -1; 0; 1; 2; 2; 4; 0 |] in
  let dur = [| 10.0; 8.0; 6.0; 1.0; 4.0; 2.0; 1.0 |] in
  let self = Stats.self_times ~parent ~dur in
  Alcotest.(check (array close)) "span minus child coverage"
    [| 1.0; 2.0; 1.0; 1.0; 2.0; 2.0; 1.0 |] self;
  Alcotest.check close "self times sum to the root span" 10.0
    (Array.fold_left ( +. ) 0.0 self);
  let kind = [| 0; 1; 2; 3; 4; 5; 1 |] in
  Alcotest.(check (array close)) "summed by kind"
    [| 1.0; 3.0; 1.0; 1.0; 2.0; 2.0 |] (Stats.sum_by ~kind ~nkinds:6 self)

let test_ratios () =
  Alcotest.check close "swap share base is moved objects" 25.0
    (Stats.pct ~num:1.0 ~base:4.0);
  Alcotest.check close "zero base reads as zero" 0.0 (Stats.pct ~num:3.0 ~base:0.0);
  Alcotest.check close "ratio" 0.5 (Stats.ratio ~num:1.0 ~base:2.0)

let test_spans () =
  let clock = ref 0.0 in
  let sp = Spans.create ~now:(fun () -> !clock) in
  let run = Spans.enter sp 0 in
  clock := 1.0;
  let step = Spans.enter sp 1 in
  clock := 2.0;
  let _inner = Spans.enter sp 2 in
  clock := 5.0;
  (* Leaving the step also closes the collection left open inside it. *)
  Spans.leave sp step;
  clock := 6.0;
  Spans.leave sp run;
  Spans.add_closed sp ~kind:3 ~start:0.0 ~stop:0.5 ~parent:run;
  Alcotest.(check (array int)) "parents" [| -1; 0; 1; 0 |] (Spans.parents sp);
  Alcotest.(check (array close)) "durations" [| 6.0; 4.0; 3.0; 0.5 |]
    (Spans.durations sp);
  Alcotest.(check (array close)) "self" [| 1.5; 1.0; 3.0; 0.5 |]
    (Stats.self_times ~parent:(Spans.parents sp) ~dur:(Spans.durations sp))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "ten samples beyond a percentile" `Quick test_reportable;
          Alcotest.test_case "highest reportable percentile" `Quick test_highest;
          Alcotest.test_case "self time is span minus child coverage" `Quick
            test_self_times;
          Alcotest.test_case "ratios and their bases" `Quick test_ratios;
          Alcotest.test_case "span recorder nesting" `Quick test_spans;
        ] );
    ]
