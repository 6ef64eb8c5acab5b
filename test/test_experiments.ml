(* Integration tests over the experiment harness: each figure/table
   reproduction must exhibit the paper's qualitative shape. *)

module Exp_common = Svagc_experiments.Exp_common
module Fig01 = Svagc_experiments.Exp_fig01
module Fig06 = Svagc_experiments.Exp_fig06
module Fig08 = Svagc_experiments.Exp_fig08
module Fig09 = Svagc_experiments.Exp_fig09
module Fig10 = Svagc_experiments.Exp_fig10
module Fig11 = Svagc_experiments.Exp_fig11
module Fig15 = Svagc_experiments.Exp_fig15
module Registry = Svagc_experiments.Registry

let test_fig1_compaction_dominates () =
  let rows = Fig01.measure ~quick:true in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Fig01.benchmark ^ ": compaction is most of the pause")
        true
        (r.Fig01.compact_pct > 70.0 && r.Fig01.compact_pct < 99.0);
      Alcotest.(check (float 0.5)) "shares sum to 100" 100.0
        (r.Fig01.mark_pct +. r.Fig01.forward_pct +. r.Fig01.adjust_pct
        +. r.Fig01.compact_pct))
    rows

let test_fig6_aggregation_benefit_decreases () =
  let points = Fig06.measure ~requests:32 () in
  List.iter
    (fun p ->
      Alcotest.(check bool) "aggregation never loses" true
        (p.Fig06.improvement_pct > 0.0))
    points;
  let first = List.hd points in
  let last = List.nth points (List.length points - 1) in
  Alcotest.(check bool) "benefit fades with request size" true
    (first.Fig06.improvement_pct > last.Fig06.improvement_pct +. 10.0)

let test_fig8_pmd_caching_shape () =
  let points = Fig08.measure () in
  List.iter
    (fun p ->
      Alcotest.(check bool) "caching never slower" true
        (p.Fig08.cached_ns <= p.Fig08.uncached_ns))
    points;
  let best =
    List.fold_left (fun acc p -> Float.max acc p.Fig08.improvement_pct) 0.0 points
  in
  Alcotest.(check bool) "max improvement near the paper's 52%" true
    (best > 40.0 && best < 60.0)

let test_fig9_ipi_reduction_is_object_count () =
  let points = Fig09.measure ~objects:50 ~pages_per_object:12 () in
  let p32 = List.nth points (List.length points - 1) in
  (* Eq. 2: unoptimized sends l broadcasts, optimized exactly one. *)
  Alcotest.(check int) "gain = l" 50
    (p32.Fig09.unoptimized_ipis / p32.Fig09.optimized_ipis);
  Alcotest.(check bool) "optimized faster on many cores" true
    (p32.Fig09.optimized_ns < p32.Fig09.unoptimized_ns /. 5.0);
  (* On a single core there is nothing to shoot down: costs converge. *)
  let p1 = List.hd points in
  Alcotest.(check bool) "single-core gap small" true
    (p1.Fig09.unoptimized_ns < p1.Fig09.optimized_ns *. 1.5)

let test_fig10_threshold_near_ten_pages () =
  List.iter
    (fun s ->
      match s.Fig10.crossover_pages with
      | Some p ->
        Alcotest.(check bool)
          (s.Fig10.machine ^ " crossover in the paper's regime") true
          (p >= 4 && p <= 14)
      | None -> Alcotest.fail "no crossover found")
    (Fig10.measure ())

let test_fig10_monotone () =
  List.iter
    (fun s ->
      (* Once SwapVA wins it keeps winning: exactly one crossover. *)
      let won = ref false in
      List.iter
        (fun p ->
          let wins = p.Fig10.swapva_ns < p.Fig10.memmove_ns in
          if !won then
            Alcotest.(check bool) "no flip back" true wins
          else if wins then won := true)
        s.Fig10.points)
    (Fig10.measure ())

let test_fig11_anchors () =
  let rows = Fig11.measure ~quick:true in
  let find name =
    match List.find_opt (fun r -> r.Fig11.benchmark = name) rows with
    | Some r -> r
    | None -> Alcotest.failf "missing %s" name
  in
  let sig_red = (find "Sigverify").Fig11.reduction_pct in
  let sparse_red = (find "Sparse.large").Fig11.reduction_pct in
  Alcotest.(check bool) "Sigverify ~97% (>85%)" true (sig_red > 85.0);
  Alcotest.(check bool) "Sparse.large strong reduction" true (sparse_red > 55.0);
  Alcotest.(check bool) "Sigverify is the best case" true (sig_red >= sparse_red)

let test_fig12_ordering () =
  (* SVAGC < ParallelGC < Shenandoah on avg full-GC pause for a
     large-object benchmark. *)
  let w = Svagc_workloads.Sigverify.default in
  let avg kind =
    (Exp_common.suite_run ~quick:true kind ~heap_factor:1.2 w)
      .Svagc_workloads.Runner.summary.Svagc_gc.Gc_stats.avg_pause_ns
  in
  let sva = avg Exp_common.Svagc in
  let par = avg Exp_common.Parallelgc in
  let shen = avg Exp_common.Shenandoah in
  Alcotest.(check bool) "svagc < parallelgc" true (sva < par);
  Alcotest.(check bool) "parallelgc < shenandoah" true (par < shen)

let test_fig15_throughput_direction () =
  let rows = Fig15.measure ~quick:true in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Fig15.benchmark ^ " not slower") true
        (r.Fig15.improvement_pct > -5.0))
    rows;
  let sparse =
    List.find (fun r -> r.Fig15.benchmark = "Sparse.large") rows
  in
  let crypto = List.find (fun r -> r.Fig15.benchmark = "CryptoAES") rows in
  Alcotest.(check bool) "memory-bound gains exceed compute-bound" true
    (sparse.Fig15.improvement_pct > crypto.Fig15.improvement_pct)

let test_registry_complete () =
  Alcotest.(check int) "20 experiments (12 figures + 3 tables + 5 extensions)" 20
    (List.length Registry.all);
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true (Registry.find id <> None))
    [ "fig1"; "fig2"; "fig6"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12";
      "fig13"; "fig14"; "fig15"; "fig16"; "table1"; "table2"; "table3";
      "ablation"; "extensions"; "resilience"; "pressure"; "fleet" ]

let test_suite_run_memoized () =
  let w = Svagc_workloads.Crypto_aes.workload in
  let a = Exp_common.suite_run ~quick:true Exp_common.Svagc ~heap_factor:1.2 w in
  let b = Exp_common.suite_run ~quick:true Exp_common.Svagc ~heap_factor:1.2 w in
  Alcotest.(check bool) "same physical result" true (a == b)

let () =
  Alcotest.run "svagc_experiments"
    [
      ( "microbench-shapes",
        [
          Alcotest.test_case "fig1 compaction dominates" `Slow
            test_fig1_compaction_dominates;
          Alcotest.test_case "fig6 aggregation fades" `Quick
            test_fig6_aggregation_benefit_decreases;
          Alcotest.test_case "fig8 pmd caching" `Quick test_fig8_pmd_caching_shape;
          Alcotest.test_case "fig9 IPI reduction" `Quick
            test_fig9_ipi_reduction_is_object_count;
          Alcotest.test_case "fig10 threshold" `Quick test_fig10_threshold_near_ten_pages;
          Alcotest.test_case "fig10 monotone" `Quick test_fig10_monotone;
        ] );
      ( "gc-shapes",
        [
          Alcotest.test_case "fig11 anchors" `Slow test_fig11_anchors;
          Alcotest.test_case "fig12 ordering" `Slow test_fig12_ordering;
          Alcotest.test_case "fig15 direction" `Slow test_fig15_throughput_direction;
        ] );
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "memoized" `Slow test_suite_run_memoized;
        ] );
    ]
