(* Tests for the paper's contribution: SVAGC configuration, MoveObject,
   the SwapVA mover, JVM instances, multi-JVM contention and the lockstep
   co-run driver.  The central differential property: an SVAGC collection
   must leave the heap in exactly the state a memmove collection leaves it
   in — same addresses, same bytes — while copying almost nothing. *)

open Svagc_vmem
open Svagc_heap
module Config = Svagc_core.Config
module Move_object = Svagc_core.Move_object
module Svagc = Svagc_core.Svagc
module Jvm = Svagc_core.Jvm
module Multi_jvm = Svagc_core.Multi_jvm
module Gc_intf = Svagc_gc.Gc_intf
module Gc_stats = Svagc_gc.Gc_stats

let qtest ?(count = 12) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- Config --- *)

let test_config_defaults_valid () =
  Config.validate Config.default;
  Config.validate Config.unoptimized

let test_config_pinning_constraint () =
  Alcotest.(check bool) "local flush requires pinning" true
    (try
       Config.validate { Config.default with Config.pin_compaction = false };
       false
     with Invalid_argument _ -> true)

let test_config_bad_values () =
  let invalid cfg =
    try Config.validate cfg; false with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "threshold" true
    (invalid { Config.default with Config.threshold_pages = 0 });
  Alcotest.(check bool) "batch" true
    (invalid { Config.default with Config.aggregation_batch = 0 });
  Alcotest.(check bool) "threads" true
    (invalid { Config.default with Config.gc_threads = 0 })

(* [check] names the first offending field in one line, so the CLI can
   report it as a usage error before printing anything. *)
let test_config_check_rejects () =
  let reason cfg =
    match Config.check cfg with Ok () -> "ok" | Error msg -> msg
  in
  let d = Config.default in
  List.iter
    (fun (name, cfg, expected) ->
      Alcotest.(check string) name expected (reason cfg))
    [
      ("default", d, "ok");
      ("unoptimized", Config.unoptimized, "ok");
      ( "threshold",
        { d with Config.threshold_pages = 0 },
        "Config: threshold must be positive" );
      ( "batch",
        { d with Config.aggregation_batch = -1 },
        "Config: batch must be positive" );
      ( "gc_threads",
        { d with Config.gc_threads = 0 },
        "Config: gc_threads must be positive" );
      ( "mem_limit_frames 0",
        { d with Config.mem_limit_frames = Some 0 },
        "Config: mem_limit_frames must be positive" );
      ( "mem_limit_frames -5",
        { d with Config.mem_limit_frames = Some (-5) },
        "Config: mem_limit_frames must be positive" );
      ( "swap_cost_ns -1",
        { d with Config.swap_cost_ns = Some (-1.0); mem_limit_frames = Some 4000 },
        "Config: swap_cost_ns must be non-negative" );
      ( "pinning",
        { d with Config.pin_compaction = false },
        "Config: Local_pinned flushing is only sound under pinned compaction \
         (Algorithm 4)" );
    ];
  Alcotest.check_raises "collector raises the same reason"
    (Invalid_argument "Config: mem_limit_frames must be positive") (fun () ->
      ignore
        (Svagc.collector
           ~config:{ d with Config.mem_limit_frames = Some 0 }
           (Helpers.heap ())))

(* --- Move_object --- *)

let test_should_swap_threshold () =
  let cfg = Config.default in
  Alcotest.(check bool) "below" false
    (Move_object.should_swap cfg ~len:((10 * 4096) - 1));
  Alcotest.(check bool) "at" true (Move_object.should_swap cfg ~len:(10 * 4096));
  Alcotest.(check bool) "above" true (Move_object.should_swap cfg ~len:(1 lsl 20))

let test_move_cost_crossover () =
  let heap = Helpers.heap () in
  let cfg = Config.default in
  (* Analytic costs: memmove below threshold, swap above; the swap path
     must win decisively for megabyte objects. *)
  let small = Move_object.move_cost_ns cfg heap ~len:(4 * 4096) in
  let large_swap = Move_object.move_cost_ns cfg heap ~len:(1 lsl 20) in
  let large_copy =
    Svagc_kernel.Memmove.cost_ns ~cold:true
      (Svagc_kernel.Process.machine (Heap.proc heap))
      ~len:(1 lsl 20)
  in
  Alcotest.(check bool) "small positive" true (small > 0.0);
  Alcotest.(check bool) "swap 5x cheaper at 1 MiB" true
    (large_swap *. 5.0 < large_copy)

(* --- The differential test --- *)

let collect_with collector_of seed =
  let heap = Helpers.heap () in
  let p = Helpers.populate ~seed heap in
  let collector = collector_of heap in
  let cycle = Gc_intf.collect collector in
  (heap, p, cycle)

let layout heap =
  Svagc_util.Vec.to_list
    (Svagc_util.Vec.map
       (fun o -> (o.Obj_model.id, o.Obj_model.addr, Heap.checksum_object heap o))
       (Heap.objects heap))

let test_svagc_equals_memmove_gc () =
  let h1, _, c1 = collect_with (Svagc.collector ~config:Config.default) 7 in
  let h2, _, c2 = collect_with (Svagc.baseline_collector ~threads:4) 7 in
  Alcotest.(check int) "same survivors" c1.Gc_stats.live_objects c2.Gc_stats.live_objects;
  Alcotest.(check bool) "identical layouts and contents" true (layout h1 = layout h2);
  Alcotest.(check bool) "svagc actually swapped" true (c1.Gc_stats.swapped_objects > 0);
  Alcotest.(check int) "memmove never swaps" 0 c2.Gc_stats.swapped_objects;
  Alcotest.(check bool) "svagc copies fewer bytes" true
    (c1.Gc_stats.bytes_copied < c2.Gc_stats.bytes_copied)

let prop_svagc_equals_memmove_gc =
  qtest "svagc == memmove GC on random heaps"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let h1, _, _ = collect_with (Svagc.collector ~config:Config.default) seed in
      let h2, _, _ = collect_with (Svagc.baseline_collector ~threads:4) seed in
      layout h1 = layout h2)

let test_svagc_faster_on_large_objects () =
  let _, _, c_sva = collect_with (Svagc.collector ~config:Config.default) 3 in
  let _, _, c_mem = collect_with (Svagc.baseline_collector ~threads:4) 3 in
  Alcotest.(check bool) "compaction faster with SwapVA" true
    (c_sva.Gc_stats.compact_ns < c_mem.Gc_stats.compact_ns)

let test_svagc_threshold_mismatch_rejected () =
  let heap = Helpers.heap ~threshold_pages:16 () in
  Alcotest.(check bool) "mismatch rejected" true
    (try ignore (Svagc.collector ~config:Config.default heap); false
     with Invalid_argument _ -> true)

let test_unoptimized_config_still_correct () =
  (* All optimizations off (broadcast flushing, no aggregation, no
     overlap): the unoptimized config must still produce a correct heap —
     but note allow_overlap=false forces sub-threshold...; overlap moves
     fall back to a correct dispatch because MoveObject only swaps
     disjoint ranges then. *)
  let cfg =
    { Config.unoptimized with Config.allow_overlap = true }
  in
  let h1, p, _ = collect_with (Svagc.collector ~config:cfg) 11 in
  Helpers.assert_live_set h1 p.Helpers.rooted

let test_ablation_ordering () =
  (* Each optimization must not make the collector slower. *)
  let pause cfg seed =
    let _, _, c = collect_with (Svagc.collector ~config:cfg) seed in
    Gc_stats.pause_ns c
  in
  let base = { Config.unoptimized with Config.allow_overlap = true } in
  let with_pmd = { base with Config.pmd_caching = true } in
  let full = Config.default in
  Alcotest.(check bool) "pmd caching helps" true (pause with_pmd 5 <= pause base 5);
  Alcotest.(check bool) "full config fastest" true (pause full 5 <= pause with_pmd 5)

(* --- Jvm --- *)

let make_jvm ?(heap_mib = 8) ?(collector = Svagc.collector ~config:Config.default) () =
  let machine = Helpers.machine () in
  Jvm.create machine ~name:"test" ~heap_bytes:(heap_mib * 1024 * 1024)
    ~collector_of:collector ()

let test_jvm_alloc_triggers_gc () =
  let jvm = make_jvm ~heap_mib:4 () in
  (* Fill with garbage: allocations must keep succeeding thanks to GCs. *)
  for _ = 1 to 200 do
    ignore (Jvm.alloc jvm ~size:(64 * 1024) ~n_refs:0 ~cls:0)
  done;
  Alcotest.(check bool) "collected at least once" true (Jvm.gc_count jvm >= 1);
  Alcotest.(check bool) "gc time charged" true (Jvm.gc_ns jvm > 0.0)

let test_jvm_out_of_memory () =
  let jvm = make_jvm ~heap_mib:2 () in
  let heap = Jvm.heap jvm in
  Alcotest.check_raises "oom on live overflow" Jvm.Out_of_memory (fun () ->
      for _ = 1 to 100 do
        let o = Jvm.alloc jvm ~size:(128 * 1024) ~n_refs:0 ~cls:0 in
        Heap.add_root heap o
      done)

let test_jvm_tlab_allocation () =
  let jvm = make_jvm () in
  let a = Jvm.alloc ~thread:0 jvm ~size:128 ~n_refs:0 ~cls:0 in
  let b = Jvm.alloc ~thread:1 jvm ~size:128 ~n_refs:0 ~cls:0 in
  Alcotest.(check bool) "different TLABs, different chunks" true
    (abs (a.Obj_model.addr - b.Obj_model.addr) >= 128);
  Alcotest.(check int) "both registered" 2 (Heap.object_count (Jvm.heap jvm))

let test_jvm_clocks () =
  let jvm = make_jvm () in
  Jvm.charge_app_ns jvm 1000.0;
  Jvm.charge_app_mem jvm ~bytes:9000;
  Alcotest.(check bool) "app time accrues" true (Jvm.app_ns jvm >= 2000.0);
  Alcotest.(check (float 1e-9)) "total = app + gc"
    (Jvm.app_ns jvm +. Jvm.gc_ns jvm)
    (Jvm.total_ns jvm)

let test_jvm_survivors_preserved_across_gcs () =
  let jvm = make_jvm ~heap_mib:6 () in
  let heap = Jvm.heap jvm in
  let keep =
    List.init 8 (fun i ->
        let o = Jvm.alloc jvm ~size:(48 * 1024) ~n_refs:0 ~cls:0 in
        Heap.write_payload heap o ~off:0 (Bytes.make 32 (Char.chr (65 + i)));
        Heap.add_root heap o;
        (o, Heap.checksum_object heap o))
  in
  for _ = 1 to 300 do
    ignore (Jvm.alloc jvm ~size:(64 * 1024) ~n_refs:0 ~cls:0)
  done;
  Alcotest.(check bool) "several GCs ran" true (Jvm.gc_count jvm >= 2);
  List.iter
    (fun (o, c) ->
      Alcotest.(check int64) "survivor bytes intact" c (Heap.checksum_object heap o))
    keep

(* --- Multi_jvm --- *)

let test_multi_jvm_contention () =
  let machine = Helpers.machine () in
  let multi =
    Multi_jvm.create machine ~instances:4 ~spawn:(fun ~index m ->
        Jvm.create m
          ~name:(Printf.sprintf "jvm-%d" index)
          ~heap_bytes:(2 * 1024 * 1024)
          ~collector_of:(Svagc.collector ~config:Config.default)
          ())
  in
  Alcotest.(check int) "contention set" 4 machine.Machine.copy_streams;
  Alcotest.(check int) "instances" 4 (Array.length (Multi_jvm.jvms multi));
  Multi_jvm.release multi;
  Alcotest.(check int) "released" 1 machine.Machine.copy_streams

let test_multi_jvm_bandwidth_division () =
  let machine = Helpers.machine () in
  let solo = Svagc_kernel.Memmove.cost_ns ~cold:true machine ~len:(1 lsl 20) in
  machine.Machine.copy_streams <- 16;
  let crowded = Svagc_kernel.Memmove.cost_ns ~cold:true machine ~len:(1 lsl 20) in
  Alcotest.(check bool) "contended copies slower" true (crowded > solo *. 1.2)

(* The driver's whole contract: every instance takes step [s], in index
   order, before any takes [s + 1], and the sched_* counters read n
   queued up front, a dispatch per call and a re-queue per call that has
   a next step, mid-run included (perfbench's digests pin them). *)
let test_multi_jvm_lockstep_driver () =
  let n = 3 and steps = 5 in
  let machine = Helpers.machine () in
  let perf = machine.Machine.perf in
  let multi =
    Multi_jvm.create machine ~instances:n ~spawn:(fun ~index m ->
        Jvm.create m
          ~name:(Printf.sprintf "jvm-%d" index)
          ~heap_bytes:(2 * 1024 * 1024)
          ~collector_of:(Svagc.collector ~config:Config.default)
          ())
  in
  let calls = ref [] in
  let k = ref 0 in
  Multi_jvm.run_round_robin_indexed multi ~steps ~step:(fun ~index jvm s ->
      incr k;
      Alcotest.(check bool) "jvm matches index" true
        ((Multi_jvm.jvms multi).(index) == jvm);
      Alcotest.(check int) "dispatched inside call k" !k
        perf.Perf.sched_dispatched;
      Alcotest.(check int) "scheduled inside call k"
        (n + min (!k - 1) (n * (steps - 1)))
        perf.Perf.sched_scheduled;
      calls := (index, s) :: !calls);
  Alcotest.(check (list (pair int int)))
    "step s in index order before any s + 1"
    (List.init (n * steps) (fun c -> (c mod n, c / n)))
    (List.rev !calls);
  Alcotest.(check int) "dispatched at end" (n * steps)
    perf.Perf.sched_dispatched;
  Alcotest.(check int) "scheduled at end" (n * steps) perf.Perf.sched_scheduled;
  Alcotest.(check int) "nothing cancelled" 0 perf.Perf.sched_cancelled;
  Multi_jvm.run_round_robin_indexed multi ~steps:0 ~step:(fun ~index:_ _ _ ->
      Alcotest.fail "steps = 0 must not call step");
  Alcotest.(check int) "steps = 0: dispatched untouched" (n * steps)
    perf.Perf.sched_dispatched;
  Alcotest.(check int) "steps = 0: scheduled untouched" (n * steps)
    perf.Perf.sched_scheduled;
  Multi_jvm.release multi

let () =
  Alcotest.run "svagc_core"
    [
      ( "config",
        [
          Alcotest.test_case "defaults valid" `Quick test_config_defaults_valid;
          Alcotest.test_case "pinning constraint" `Quick test_config_pinning_constraint;
          Alcotest.test_case "bad values" `Quick test_config_bad_values;
          Alcotest.test_case "check names the field" `Quick
            test_config_check_rejects;
        ] );
      ( "move_object",
        [
          Alcotest.test_case "threshold" `Quick test_should_swap_threshold;
          Alcotest.test_case "cost crossover" `Quick test_move_cost_crossover;
        ] );
      ( "differential",
        [
          Alcotest.test_case "svagc == memmove GC" `Quick test_svagc_equals_memmove_gc;
          Alcotest.test_case "svagc faster" `Quick test_svagc_faster_on_large_objects;
          Alcotest.test_case "threshold mismatch" `Quick
            test_svagc_threshold_mismatch_rejected;
          Alcotest.test_case "unoptimized correct" `Quick
            test_unoptimized_config_still_correct;
          Alcotest.test_case "ablation ordering" `Quick test_ablation_ordering;
          prop_svagc_equals_memmove_gc;
        ] );
      ( "jvm",
        [
          Alcotest.test_case "alloc triggers gc" `Quick test_jvm_alloc_triggers_gc;
          Alcotest.test_case "out of memory" `Quick test_jvm_out_of_memory;
          Alcotest.test_case "tlab allocation" `Quick test_jvm_tlab_allocation;
          Alcotest.test_case "clocks" `Quick test_jvm_clocks;
          Alcotest.test_case "survivors preserved" `Quick
            test_jvm_survivors_preserved_across_gcs;
        ] );
      ( "multi_jvm",
        [
          Alcotest.test_case "contention level" `Quick test_multi_jvm_contention;
          Alcotest.test_case "bandwidth division" `Quick test_multi_jvm_bandwidth_division;
          Alcotest.test_case "lockstep driver" `Quick
            test_multi_jvm_lockstep_driver;
        ] );
    ]
