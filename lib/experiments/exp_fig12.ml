(** Fig. 12 — average full-GC latency of SVAGC vs Shenandoah and
    ParallelGC at 1.2x (a) and 2x (b) minimum heap.  Paper: SVAGC is
    3.82x / 16.05x better on average at 1.2x, and 2.74x / 13.62x at 2x. *)

module Runner = Svagc_workloads.Runner
module Gc_stats = Svagc_gc.Gc_stats
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

let metric r = r.Runner.summary.Gc_stats.avg_pause_ns

let measure_factor ~quick ~heap_factor =
  List.map
    (fun w ->
      let sva = Exp_common.suite_run ~quick Exp_common.Svagc ~heap_factor w in
      let par = Exp_common.suite_run ~quick Exp_common.Parallelgc ~heap_factor w in
      let shen = Exp_common.suite_run ~quick Exp_common.Shenandoah ~heap_factor w in
      (w.Svagc_workloads.Workload.name, shen, par, sva))
    (Exp_common.suite ~quick)

let print_factor ~quick ~heap_factor ~label ~paper_par ~paper_shen =
  Report.subsection label;
  let rows = measure_factor ~quick ~heap_factor in
  Table.print
    ~headers:[ "benchmark"; "Shenandoah"; "ParallelGC"; "SVAGC"; "vs Par"; "vs Shen" ]
    (List.map
       (fun (name, shen, par, sva) ->
         [
           name;
           Report.ns (metric shen);
           Report.ns (metric par);
           Report.ns (metric sva);
           Report.speedup (metric par /. metric sva);
           Report.speedup (metric shen /. metric sva);
         ])
       rows);
  let pairs_par = List.map (fun (_, _, par, sva) -> (par, sva)) rows in
  let pairs_shen = List.map (fun (_, shen, _, sva) -> (shen, sva)) rows in
  let g_par = Exp_common.geomean_ratio pairs_par ~metric in
  let g_shen = Exp_common.geomean_ratio pairs_shen ~metric in
  Report.paper_vs_measured
    [
      ("avg latency gain vs ParallelGC", paper_par, Report.speedup g_par);
      ("avg latency gain vs Shenandoah", paper_shen, Report.speedup g_shen);
    ];
  (g_par, g_shen)

let run ?(quick = false) () =
  Report.section "Fig. 12 - Average full-GC latency vs Shenandoah/ParallelGC";
  Exp_common.prefill ~quick
    (List.concat_map
       (fun heap_factor ->
         List.map
           (fun kind -> (kind, heap_factor))
           Exp_common.[ Svagc; Parallelgc; Shenandoah ])
       [ 1.2; 2.0 ]);
  let (_ : float * float) =
    print_factor ~quick ~heap_factor:1.2 ~label:"(a) 1.2x minimum heap"
      ~paper_par:"3.82x" ~paper_shen:"16.05x"
  in
  let (_ : float * float) =
    print_factor ~quick ~heap_factor:2.0 ~label:"(b) 2x minimum heap"
      ~paper_par:"2.74x" ~paper_shen:"13.62x"
  in
  ()
