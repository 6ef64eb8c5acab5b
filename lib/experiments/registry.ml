type experiment = {
  id : string;
  title : string;
  run : ?quick:bool -> unit -> unit;
}

let all =
  [
    { id = "fig1"; title = "Full GC phase breakdown"; run = Exp_fig01.run };
    { id = "fig2"; title = "Multi-JVM scalability issue (ParallelGC)"; run = Exp_fig02.run };
    { id = "fig6"; title = "Aggregated vs separated SwapVA calls"; run = Exp_fig06.run };
    { id = "fig8"; title = "PMD caching benefits"; run = Exp_fig08.run };
    { id = "fig9"; title = "Multi-core optimizations to SwapVA"; run = Exp_fig09.run };
    { id = "fig10"; title = "SwapVA threshold vs machine configuration"; run = Exp_fig10.run };
    { id = "fig11"; title = "GC time -/+ SwapVA per benchmark"; run = Exp_fig11.run };
    { id = "fig12"; title = "Average full-GC latency vs baselines"; run = Exp_fig12.run };
    { id = "fig13"; title = "Maximum full-GC latency vs baselines"; run = Exp_fig13.run };
    { id = "fig14"; title = "SVAGC multi-JVM scalability"; run = Exp_fig14.run };
    { id = "fig15"; title = "Application throughput of SVAGC"; run = Exp_fig15.run };
    { id = "fig16"; title = "Throughput vs baselines"; run = Exp_fig16.run };
    { id = "table1"; title = "Applicability matrix"; run = Exp_table1.run };
    { id = "table2"; title = "Benchmark configurations"; run = Exp_table2.run };
    { id = "table3"; title = "Cache & DTLB miss evaluation"; run = Exp_table3.run };
    { id = "ablation"; title = "Sensitivity & knock-outs (extension)"; run = Exp_ablation.run };
    { id = "extensions"; title = "Minor/concurrent SwapVA + NVM wear (extension)"; run = Exp_extensions.run };
    { id = "resilience"; title = "GC under injected kernel faults (extension)"; run = Exp_resilience.run };
    { id = "pressure"; title = "Compaction cost vs residency under memory pressure (extension)"; run = Exp_pressure.run };
    { id = "fleet"; title = "Multi-tenant fleet: cgroups, admission & far memory (extension)"; run = Exp_fleet.run };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run_all ?quick () = List.iter (fun e -> e.run ?quick ()) all
