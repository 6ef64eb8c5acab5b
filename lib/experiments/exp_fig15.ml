(** Fig. 15 — application throughput of SVAGC relative to the same engine
    without SwapVA, at 1.2x minimum heap.  Paper: improvements range from
    15.2% (CryptoAES) to 86.9% (Sparse.large), tracking how
    memory-intensive each benchmark is. *)

module Runner = Svagc_workloads.Runner
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

type row = {
  benchmark : string;
  baseline_throughput : float;
  svagc_throughput : float;
  improvement_pct : float;
}

let measure ~quick =
  Exp_common.prefill ~quick
    [ (Exp_common.Lisp2_memmove, 1.2); (Exp_common.Svagc, 1.2) ];
  List.map
    (fun w ->
      let base = Exp_common.suite_run ~quick Exp_common.Lisp2_memmove ~heap_factor:1.2 w in
      let sva = Exp_common.suite_run ~quick Exp_common.Svagc ~heap_factor:1.2 w in
      {
        benchmark = w.Svagc_workloads.Workload.name;
        baseline_throughput = base.Runner.throughput;
        svagc_throughput = sva.Runner.throughput;
        improvement_pct =
          Svagc_util.Num_util.pct_change ~baseline:base.Runner.throughput
            ~value:sva.Runner.throughput;
      })
    (Exp_common.suite ~quick)

let run ?(quick = false) () =
  Report.section "Fig. 15 - Application throughput of SVAGC at 1.2x min heap";
  let rows = measure ~quick in
  Table.print
    ~headers:[ "benchmark"; "-SwapVA (steps/ms)"; "+SwapVA (steps/ms)"; "improvement" ]
    (List.map
       (fun r ->
         [
           r.benchmark;
           Printf.sprintf "%.3f" r.baseline_throughput;
           Printf.sprintf "%.3f" r.svagc_throughput;
           Report.pct r.improvement_pct;
         ])
       rows);
  let find name =
    match List.find_opt (fun r -> r.benchmark = name) rows with
    | Some r -> Report.pct r.improvement_pct
    | None -> "n/a (quick mode)"
  in
  Report.paper_vs_measured
    [
      ("CryptoAES improvement (suite min)", "15.2%", find "CryptoAES");
      ("Sparse.large improvement (suite max)", "86.9%", find "Sparse.large");
    ]
