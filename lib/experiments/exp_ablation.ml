(** Ablations (extension beyond the paper's figures).

    Three studies of the design choices DESIGN.md calls out:

    1. Cost-model sensitivity — how the Fig. 10 break-even threshold moves
       when memory bandwidth or page-table access costs change (the
       paper's point that "CPU performance and memory bandwidth can impact
       the threshold value and define it").
    2. Shootdown sensitivity — how the Fig. 9 optimized/unoptimized gap
       responds to the IPI cost.
    3. Optimization knock-outs — each SVAGC optimization disabled in turn
       on two representative benchmarks, measuring what it contributes to
       total GC time. *)

open Svagc_vmem
module Swapva = Svagc_kernel.Swapva
module Memmove = Svagc_kernel.Memmove
module Process = Svagc_kernel.Process
module Shootdown = Svagc_kernel.Shootdown
module Config = Svagc_core.Config
module Report = Svagc_metrics.Report
module Table = Svagc_metrics.Table

(* --- 1. threshold sensitivity --- *)

let crossover_pages cost =
  let rec find pages =
    if pages > 64 then None
    else begin
      let machine = Machine.create ~phys_mib:256 cost in
      let proc = Process.create machine in
      let aspace = Process.aspace proc in
      let src = 1 lsl 30 and dst = (1 lsl 30) + (1 lsl 29) in
      Address_space.map_range aspace ~va:src ~pages;
      Address_space.map_range aspace ~va:dst ~pages;
      let mm = Memmove.move aspace ~src ~dst ~len:(pages * Addr.page_size) in
      let opts =
        { Swapva.pmd_caching = true; flush = Shootdown.Local_pinned;
          allow_overlap = false; leaf_swap = false }
      in
      let sv = Swapva.swap proc ~opts ~src ~dst ~pages in
      if sv < mm then Some pages else find (pages + 1)
    end
  in
  find 1

let threshold_sensitivity () =
  let base = Cost_model.xeon_6130 in
  let variants =
    [
      ("baseline", base);
      ( "copy bandwidth / 2",
        { base with Cost_model.cache_copy_bw = base.Cost_model.cache_copy_bw /. 2.0;
          dram_copy_bw = base.Cost_model.dram_copy_bw /. 2.0 } );
      ( "copy bandwidth x 2",
        { base with Cost_model.cache_copy_bw = base.Cost_model.cache_copy_bw *. 2.0;
          dram_copy_bw = base.Cost_model.dram_copy_bw *. 2.0 } );
      ( "pte access x 4",
        { base with Cost_model.pt_entry_ns = base.Cost_model.pt_entry_ns *. 4.0;
          lock_pair_ns = base.Cost_model.lock_pair_ns *. 4.0 } );
      ( "syscall x 2",
        { base with Cost_model.syscall_ns = base.Cost_model.syscall_ns *. 2.0;
          swap_setup_ns = base.Cost_model.swap_setup_ns *. 2.0 } );
    ]
  in
  List.map
    (fun (label, cost) ->
      ( label,
        match crossover_pages cost with
        | Some p -> string_of_int p ^ " pages"
        | None -> "> 64 pages" ))
    variants

(* --- 2. shootdown sensitivity --- *)

let fig9_gap cost =
  let storm ~optimized =
    let machine = Machine.create ~ncores:32 ~phys_mib:512 cost in
    let proc = Process.create machine in
    let aspace = Process.aspace proc in
    Address_space.map_range aspace ~va:(1 lsl 30) ~pages:(100 * 8);
    let total = ref 0.0 in
    let opts =
      if optimized then
        { Swapva.pmd_caching = true; flush = Shootdown.Local_pinned;
          allow_overlap = false; leaf_swap = false }
      else
        { Swapva.pmd_caching = true; flush = Shootdown.Broadcast_per_call;
          allow_overlap = false; leaf_swap = false }
    in
    if optimized then
      total :=
        !total
        +. Shootdown.cycle_prologue machine
             ~asid:(Address_space.asid aspace)
             ~core:0 Shootdown.Local_pinned;
    for i = 0 to 49 do
      let off = (1 lsl 30) + (i * 8 * Addr.page_size) in
      total :=
        !total
        +. Swapva.swap proc ~opts ~src:off ~dst:(off + (4 * Addr.page_size)) ~pages:4
    done;
    !total
  in
  storm ~optimized:false /. storm ~optimized:true

let shootdown_sensitivity () =
  let base = Cost_model.xeon_6130 in
  List.map
    (fun (label, factor) ->
      let cost =
        { base with Cost_model.ipi_ns = base.Cost_model.ipi_ns *. factor;
          ipi_ack_ns = base.Cost_model.ipi_ack_ns *. factor }
      in
      (label, Printf.sprintf "%.1fx" (fig9_gap cost)))
    [ ("ipi / 4", 0.25); ("baseline", 1.0); ("ipi x 4", 4.0) ]

(* --- 3. optimization knock-outs --- *)

let knockouts =
  [
    ("full SVAGC", Config.default);
    ("no PMD caching", { Config.default with Config.pmd_caching = false });
    ( "no aggregation",
      { Config.default with Config.aggregation = false; aggregation_batch = 1 } );
    ( "no SwapVA at all (threshold = infinity)",
      (* The biggest knock-out: every move falls back to memmove.  (The
         heap is built with the same threshold, so nothing page-aligns
         either — this is exactly the paper's "-SwapVA" configuration.) *)
      { Config.default with Config.threshold_pages = 1_000_000 } );
    ( "no pinning (process-targeted shootdowns)",
      { Config.default with Config.pin_compaction = false;
        flush = Shootdown.Process_targeted } );
    ( "naive shootdowns (broadcast per call)",
      { Config.default with Config.pin_compaction = false;
        flush = Shootdown.Broadcast_per_call } );
    ( "self-invalidating TLBs (no IPIs, Awad et al.)",
      { Config.default with Config.pin_compaction = false;
        flush = Shootdown.Self_invalidate } );
  ]

let run_knockout w (label, cfg) =
  let machine = Exp_common.fresh_machine Cost_model.xeon_6130 in
  let heap_bytes = Svagc_workloads.Workload.heap_bytes w ~factor:1.2 in
  let jvm =
    Svagc_core.Jvm.create machine
      ~name:(w.Svagc_workloads.Workload.name ^ "-" ^ label)
      ~heap_bytes ~threshold_pages:cfg.Config.threshold_pages
      ~collector_of:(Svagc_core.Svagc.collector ~config:cfg)
      ()
  in
  let rng = Svagc_util.Rng.create ~seed:7 in
  let step = w.Svagc_workloads.Workload.setup jvm rng in
  let executed = ref 0 in
  while !executed < 40 || (Svagc_core.Jvm.gc_count jvm < 4 && !executed < 1000) do
    step ();
    incr executed
  done;
  let gc = Svagc_core.Jvm.gc_ns jvm in
  (label, gc)

let run ?(quick = false) () =
  Report.section "Ablations (extension): sensitivity and knock-outs";
  Report.subsection "break-even threshold vs cost model (Fig. 10 axis)";
  Table.print ~headers:[ "variant"; "crossover" ]
    (List.map (fun (a, b) -> [ a; b ]) (threshold_sensitivity ()));
  Report.subsection "Fig. 9 optimized/unoptimized gap vs IPI cost (50 objects)";
  Table.print ~headers:[ "variant"; "gap" ]
    (List.map (fun (a, b) -> [ a; b ]) (shootdown_sensitivity ()));
  Report.subsection "optimization knock-outs (total GC time)";
  let workloads =
    if quick then [ Svagc_workloads.Sigverify.default ]
    else [ Svagc_workloads.Sigverify.default; Svagc_workloads.Sparse.large ]
  in
  List.iter
    (fun w ->
      let rows = List.map (run_knockout w) knockouts in
      let baseline = snd (List.hd rows) in
      Report.subsection w.Svagc_workloads.Workload.name;
      Table.print ~headers:[ "configuration"; "total GC"; "vs full SVAGC" ]
        (List.map
           (fun (label, gc) ->
             [
               label;
               Report.ns gc;
               Printf.sprintf "%+.1f%%" (100.0 *. (gc -. baseline) /. baseline);
             ])
           rows))
    workloads
