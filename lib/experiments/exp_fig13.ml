(** Fig. 13 — maximum full-GC latency (the pause-sensitive metric).
    Paper: SVAGC beats ParallelGC / Shenandoah by 4.49x / 18.25x at 1.2x
    heap and 3.60x / 12.24x at 2x. *)

module Runner = Svagc_workloads.Runner
module Gc_stats = Svagc_gc.Gc_stats
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

let metric r = r.Runner.summary.Gc_stats.max_pause_ns

let print_factor ~quick ~heap_factor ~label ~paper_par ~paper_shen =
  Report.subsection label;
  let rows =
    List.map
      (fun w ->
        let sva = Exp_common.suite_run ~quick Exp_common.Svagc ~heap_factor w in
        let par = Exp_common.suite_run ~quick Exp_common.Parallelgc ~heap_factor w in
        let shen = Exp_common.suite_run ~quick Exp_common.Shenandoah ~heap_factor w in
        (w.Svagc_workloads.Workload.name, shen, par, sva))
      (Exp_common.suite ~quick)
  in
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
  let g_par =
    Exp_common.geomean_ratio (List.map (fun (_, _, p, s) -> (p, s)) rows) ~metric
  in
  let g_shen =
    Exp_common.geomean_ratio (List.map (fun (_, sh, _, s) -> (sh, s)) rows) ~metric
  in
  Report.paper_vs_measured
    [
      ("max latency gain vs ParallelGC", paper_par, Report.speedup g_par);
      ("max latency gain vs Shenandoah", paper_shen, Report.speedup g_shen);
    ]

let run ?(quick = false) () =
  Report.section "Fig. 13 - Maximum full-GC latency vs Shenandoah/ParallelGC";
  Exp_common.prefill ~quick
    (List.concat_map
       (fun heap_factor ->
         List.map
           (fun kind -> (kind, heap_factor))
           Exp_common.[ Svagc; Parallelgc; Shenandoah ])
       [ 1.2; 2.0 ]);
  print_factor ~quick ~heap_factor:1.2 ~label:"(a) 1.2x minimum heap"
    ~paper_par:"4.49x" ~paper_shen:"18.25x";
  print_factor ~quick ~heap_factor:2.0 ~label:"(b) 2x minimum heap"
    ~paper_par:"3.60x" ~paper_shen:"12.24x"
