open Svagc_vmem
module Jvm = Svagc_core.Jvm
module Multi_jvm = Svagc_core.Multi_jvm
module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

type point = {
  instances : int;
  avg_app_ns : float;
  avg_gc_total_ns : float;
  max_gc_pause_ns : float;
  app_increase_pct : float;
  gc_increase_pct : float;
}

let run_one ~collector ~instances ~steps =
  let workload = Svagc_workloads.Lru_cache.workload in
  let phys_mib = 256 + (instances * 24) in
  let machine =
    Machine.create ~ncores:32 ~phys_mib Cost_model.xeon_6130
  in
  let steppers = Array.make instances (fun () -> ()) in
  let multi =
    Multi_jvm.create machine ~instances ~spawn:(fun ~index machine ->
        let jvm =
          Runner.make_jvm ~heap_factor:1.2 ~stamp_headers:false ~machine
            ~collector_of:(Exp_common.collector_of collector) workload
        in
        let rng = Svagc_util.Rng.create ~seed:(1000 + index) in
        steppers.(index) <- workload.Workload.setup jvm rng;
        jvm)
  in
  (* Interleave: step s visits every instance in turn, so all JVMs make
     progress under the same contention level. *)
  Multi_jvm.run_round_robin_indexed multi ~steps ~step:(fun ~index _jvm _s ->
      steppers.(index) ());
  let jvms = Multi_jvm.jvms multi in
  let max_pause =
    Array.fold_left
      (fun acc jvm ->
        List.fold_left
          (fun acc c -> Float.max acc (Svagc_gc.Gc_stats.pause_ns c))
          acc (Jvm.cycles jvm))
      0.0 jvms
  in
  (* Collect the host garbage of this co-run (up to 32 simulated heaps)
     before the sweep's next, larger one.  Measured on the 2-core x86
     host, three alternating runs of `exp all --quick` at DOMAINS=1: host
     peak RSS 85 MB with the call, 96 MB without it (wall time within
     noise, 4.9-7.0 s either way), so it stays. *)
  Gc.full_major ();
  let point =
    {
      instances;
      avg_app_ns = Multi_jvm.avg_app_ns multi;
      avg_gc_total_ns = Multi_jvm.avg_gc_ns multi;
      max_gc_pause_ns = max_pause;
      app_increase_pct = 0.0;
      gc_increase_pct = 0.0;
    }
  in
  Multi_jvm.release multi;
  point

let sweep ~collector ?(steps = 40) ?(instances = [ 1; 2; 4; 8; 16; 32 ]) () =
  let raw = List.map (fun i -> run_one ~collector ~instances:i ~steps) instances in
  match raw with
  | [] -> []
  | base :: _ ->
    List.map
      (fun p ->
        {
          p with
          app_increase_pct =
            Svagc_util.Num_util.pct_change ~baseline:base.avg_app_ns
              ~value:p.avg_app_ns;
          gc_increase_pct =
            Svagc_util.Num_util.pct_change ~baseline:base.avg_gc_total_ns
              ~value:p.avg_gc_total_ns;
        })
      raw

let print_points points =
  Table.print
    ~headers:[ "JVMs"; "avg app"; "avg GC total"; "max pause"; "app +%"; "GC +%" ]
    (List.map
       (fun p ->
         [
           string_of_int p.instances;
           Report.ns p.avg_app_ns;
           Report.ns p.avg_gc_total_ns;
           Report.ns p.max_gc_pause_ns;
           Printf.sprintf "%.1f" p.app_increase_pct;
           Printf.sprintf "%.1f" p.gc_increase_pct;
         ])
       points)
