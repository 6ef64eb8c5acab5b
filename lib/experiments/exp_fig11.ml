(** Fig. 11 — total GC time with and without SwapVA on SVAGC (1.2x minimum
    heap), each bar split into compaction vs all other phases.  Paper
    anchors: GC pause reduced 70.9% on Sparse.large/4 and 97% on
    Sigverify. *)

module Runner = Svagc_workloads.Runner
module Gc_stats = Svagc_gc.Gc_stats
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

type row = {
  benchmark : string;
  memmove_compact_ns : float;
  memmove_other_ns : float;
  swapva_compact_ns : float;
  swapva_other_ns : float;
  reduction_pct : float;
}

let measure ~quick =
  Exp_common.prefill ~quick
    [ (Exp_common.Lisp2_memmove, 1.2); (Exp_common.Svagc, 1.2) ];
  List.map
    (fun w ->
      let base = Exp_common.suite_run ~quick Exp_common.Lisp2_memmove ~heap_factor:1.2 w in
      let sva = Exp_common.suite_run ~quick Exp_common.Svagc ~heap_factor:1.2 w in
      let total s =
        s.Runner.summary.Gc_stats.total_compact_ns
        +. s.Runner.summary.Gc_stats.total_other_ns
      in
      {
        benchmark = w.Svagc_workloads.Workload.name;
        memmove_compact_ns = base.Runner.summary.Gc_stats.total_compact_ns;
        memmove_other_ns = base.Runner.summary.Gc_stats.total_other_ns;
        swapva_compact_ns = sva.Runner.summary.Gc_stats.total_compact_ns;
        swapva_other_ns = sva.Runner.summary.Gc_stats.total_other_ns;
        reduction_pct =
          (let b = total base and s = total sva in
           if b > 0.0 then 100.0 *. (b -. s) /. b else 0.0);
      })
    (Exp_common.suite ~quick)

let run ?(quick = false) () =
  Report.section
    "Fig. 11 - GC time -/+ SwapVA on SVAGC at 1.2x min heap (compact | other)";
  let rows = measure ~quick in
  Table.print
    ~headers:
      [
        "benchmark"; "-SwapVA compact"; "-SwapVA other"; "+SwapVA compact";
        "+SwapVA other"; "GC reduction";
      ]
    (List.map
       (fun r ->
         [
           r.benchmark;
           Report.ns r.memmove_compact_ns;
           Report.ns r.memmove_other_ns;
           Report.ns r.swapva_compact_ns;
           Report.ns r.swapva_other_ns;
           Report.pct r.reduction_pct;
         ])
       rows);
  let anchor name =
    match List.find_opt (fun r -> r.benchmark = name) rows with
    | Some r -> Report.pct r.reduction_pct
    | None -> "n/a (quick mode)"
  in
  Report.paper_vs_measured
    [
      ("Sparse.large/4 GC reduction", "70.9%", anchor "Sparse.large/4");
      ("Sigverify GC reduction", "97%", anchor "Sigverify");
    ]
