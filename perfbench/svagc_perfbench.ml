(* The repository benchmark driver.  See README.md in this directory for
   the workloads, the metrics and how they relate.

   Every layer boundary is timed from here, around calls to public entry
   points: the four LISP2 phase functions, the compaction mover's
   closures, the collector bound through [Gc_intf.make], the workload's
   step closure and [Fleet.run].  Nothing inside the simulator is
   instrumented. *)

open Perfbench_stats
module Json = Svagc_trace.Json
module Histogram = Svagc_util.Histogram
module Rng = Svagc_util.Rng
module Addr = Svagc_vmem.Addr
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model
module Perf = Svagc_vmem.Perf
module Cache_sim = Svagc_vmem.Cache_sim
module Tlb = Svagc_vmem.Tlb
module Heap = Svagc_heap.Heap
module Obj_model = Svagc_heap.Obj_model
module Gc_intf = Svagc_gc.Gc_intf
module Gc_stats = Svagc_gc.Gc_stats
module Lisp2 = Svagc_gc.Lisp2
module Mark = Svagc_gc.Mark
module Forward = Svagc_gc.Forward
module Adjust = Svagc_gc.Adjust
module Compact = Svagc_gc.Compact
module Config = Svagc_core.Config
module Jvm = Svagc_core.Jvm
module Move_object = Svagc_core.Move_object
module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload
module Spec = Svagc_workloads.Spec
module Fleet = Svagc_fleet.Fleet
module Domain_pool = Svagc_par.Domain_pool

let now = Unix.gettimeofday

(* ---- Span kinds: one per layer boundary ---- *)

let k_run = 0
let k_step = 1
let k_fleet = 2
let k_collection = 3
let k_mark = 4
let k_forward = 5
let k_adjust = 6
let k_compact = 7
let k_mover = 8
let k_audit = 9
let k_setup = 10

let kind_names =
  [| "run"; "step"; "fleet"; "collection"; "mark"; "forward"; "adjust";
     "compact"; "mover"; "audit"; "setup" |]

(* ---- Per-run accumulator ---- *)

type acc = {
  spans : Spans.t option;  (* Some in the traced run *)
  mutable measuring : bool;  (* inside the measured region *)
  gc_host_ms : Histogram.t;  (* host ms per measured collection *)
  pauses_ns : Histogram.t;  (* simulated pause per measured collection *)
  digest : Buffer.t;
  mutable excluded_s : float;  (* output checks inside the measured region *)
  mutable host_s : float;  (* the whole measured region *)
  mutable setup_samples : float list;
  mutable pass_host_s : float list;  (* host_s of each pass, newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable steps : int;
  mutable moved : int;
  mutable swapped : int;
  mutable mover_bytes : int;  (* bytes copied + remapped inside the mover *)
  perf : Perf.t;  (* summed measured-region counter deltas *)
  mutable llc_accesses : int;
  mutable llc_misses : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable sim_gc_ns : float;
  mutable sim_total_ns : float;
  (* fleet-pressure only *)
  stalls_ns : Histogram.t;
  mutable admitted : int;
  mutable queued : int;
  mutable rejected : int;
  mutable fleet_pauses : int;
  mutable gc_seen : bool;
  mutable last_bind : float;
}

let make_acc ~traced =
  {
    spans = (if traced then Some (Spans.create ~now) else None);
    measuring = false;
    gc_host_ms = Histogram.create ();
    pauses_ns = Histogram.create ();
    digest = Buffer.create 4096;
    excluded_s = 0.0;
    host_s = 0.0;
    setup_samples = [];
    pass_host_s = [];
    attempted = 0;
    failed = 0;
    errors = [];
    steps = 0;
    moved = 0;
    swapped = 0;
    mover_bytes = 0;
    perf = Perf.create ();
    llc_accesses = 0;
    llc_misses = 0;
    tlb_hits = 0;
    tlb_misses = 0;
    sim_gc_ns = 0.0;
    sim_total_ns = 0.0;
    stalls_ns = Histogram.create ();
    admitted = 0;
    queued = 0;
    rejected = 0;
    fleet_pauses = 0;
    gc_seen = false;
    last_bind = 0.0;
  }

let span acc kind f =
  match acc.spans with
  | None -> f ()
  | Some sp -> (
    let id = Spans.enter sp kind in
    match f () with
    | r ->
      Spans.leave sp id;
      r
    | exception e ->
      Spans.leave sp id;
      raise e)

let fail acc ~ops msg =
  acc.attempted <- acc.attempted + ops;
  acc.failed <- acc.failed + ops;
  acc.errors <- msg :: acc.errors

(* ---- Digest of the simulated output ---- *)

let digest_cycle b (c : Gc_stats.cycle) =
  Printf.bprintf b "c %h %h %h %h %h %d %d %d %d %d %d %d\n" c.Gc_stats.mark_ns
    c.forward_ns c.adjust_ns c.compact_ns c.concurrent_ns c.live_objects
    c.live_bytes c.reclaimed_bytes c.moved_objects c.swapped_objects
    c.bytes_copied c.bytes_remapped

let digest_perf b (p : Perf.t) =
  Buffer.add_char b 'p';
  List.iter (fun (_, v) -> Printf.bprintf b " %d" v) (Perf.to_assoc p);
  Buffer.add_char b '\n'

(* ---- Collectors, timed from outside ---- *)

(* The mover wrapped so the traced run sees its host time and the bytes
   it moved; the simulated behaviour is the wrapped closure's. *)
let traced_mover acc (m : Compact.mover) =
  let timed heap f =
    let perf = (Svagc_kernel.Process.machine (Heap.proc heap)).Machine.perf in
    let before = perf.Perf.bytes_copied + perf.Perf.bytes_remapped in
    let r = span acc k_mover f in
    acc.mover_bytes <-
      acc.mover_bytes + perf.Perf.bytes_copied + perf.Perf.bytes_remapped - before;
    r
  in
  {
    m with
    Compact.prologue = (fun heap -> timed heap (fun () -> m.Compact.prologue heap));
    move_entries =
      (fun heap entries -> timed heap (fun () -> m.Compact.move_entries heap entries));
    epilogue = (fun heap -> timed heap (fun () -> m.Compact.epilogue heap));
  }

(* [Lisp2.collect] recomposed from its four public phase functions so each
   phase gets a span.  The library's version also emits simulated-trace
   spans, which are no-ops here because the simulated tracer is never
   started.  The traced run's digest must equal the untraced run's (which
   calls [Lisp2.collect] itself): that is the proof this recomposition
   and the shims change nothing. *)
let traced_collect acc (cfg : Lisp2.config) heap =
  let phase kind f = span acc kind f in
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let before = Perf.copy machine.Machine.perf in
  let top_before = Heap.top heap in
  let threads = cfg.Lisp2.threads in
  let mark_total = phase k_mark (fun () -> Mark.run heap ~threads) in
  let concurrent_ns = mark_total *. cfg.Lisp2.concurrent_mark_fraction in
  let mark_ns = mark_total -. concurrent_ns in
  let fwd = phase k_forward (fun () -> Forward.run heap ~threads) in
  let live = fwd.Forward.live in
  let adjust_ns = phase k_adjust (fun () -> Adjust.run heap ~threads ~live) in
  let live_objects = List.length live in
  let live_bytes = List.fold_left (fun a o -> a + o.Obj_model.size) 0 live in
  let compact =
    phase k_compact (fun () ->
        Compact.run heap ~threads:cfg.Lisp2.compact_threads
          ~mover:(traced_mover acc cfg.Lisp2.mover)
          ~live ~new_top:fwd.Forward.new_top)
  in
  let delta = Perf.diff ~after:machine.Machine.perf ~before in
  {
    Gc_stats.mark_ns;
    forward_ns = fwd.Forward.phase_ns;
    adjust_ns;
    compact_ns = compact.Compact.phase_ns;
    concurrent_ns;
    live_objects;
    live_bytes;
    reclaimed_bytes = max 0 (top_before - fwd.Forward.new_top);
    moved_objects = compact.Compact.moved_objects;
    swapped_objects = compact.Compact.swapped_objects;
    bytes_copied = delta.Perf.bytes_copied;
    bytes_remapped = delta.Perf.bytes_remapped;
  }

(* Output check after every collection, outside the timed collection:
   the heap audit, plus the cycle's digest line. *)
let after_collection acc heap cycle =
  let t = now () in
  digest_cycle acc.digest cycle;
  (match Heap.audit heap with
  | Ok () -> ()
  | Error problems ->
    (* a collection outside the measured region is not yet counted *)
    if not acc.measuring then acc.attempted <- acc.attempted + 1;
    acc.failed <- acc.failed + 1;
    acc.errors <-
      Printf.sprintf "heap audit: %s"
        (String.concat "; " (List.filteri (fun i _ -> i < 3) problems))
      :: acc.errors);
  let t' = now () in
  acc.excluded_s <- acc.excluded_s +. (t' -. t);
  Option.iter
    (fun sp -> Spans.add_closed sp ~kind:k_audit ~start:t ~stop:t' ~parent:(Spans.current sp))
    acc.spans

let bind_collector acc make_cfg heap =
  let cfg : Lisp2.config = make_cfg () in
  if not acc.gc_seen then acc.last_bind <- now ();
  Gc_intf.make ~name:cfg.Lisp2.label heap (fun () ->
      acc.gc_seen <- true;
      let cycle =
        span acc k_collection (fun () ->
            let t0 = now () in
            let cycle =
              if acc.spans = None then Lisp2.collect cfg heap
              else traced_collect acc cfg heap
            in
            if acc.measuring then Histogram.add acc.gc_host_ms ((now () -. t0) *. 1e3);
            after_collection acc heap cycle;
            cycle)
      in
      if acc.measuring then begin
        acc.attempted <- acc.attempted + 1;
        Histogram.add acc.pauses_ns (Gc_stats.pause_ns cycle);
        acc.moved <- acc.moved + cycle.Gc_stats.moved_objects;
        acc.swapped <- acc.swapped + cycle.Gc_stats.swapped_objects
      end;
      cycle)

(* What [Svagc.collector] builds with [Config.default]. *)
let svagc_cfg () =
  let config = Config.default in
  Config.validate config;
  Lisp2.config ~label:"svagc" ~threads:config.Config.gc_threads
    ~mover:(Move_object.mover config) ()

(* Table III's memmove baseline on the measured path. *)
let measure_core = 0

let memmove_measured_cfg () =
  Lisp2.config ~label:"memmove-measured" ~threads:4
    ~mover:(Compact.memmove_mover_measured ~core:measure_core)
    ()

(* ---- suite-swapva / suite-copy-cache ---- *)

type suite_mode = {
  copy_cache : bool;
  steps : int;  (* minimum mutator steps per benchmark *)
  min_gcs : int;
  max_steps : int;
}

(* Fig. 11's full-size runs (Exp_common.suite_run). *)
let swapva_mode = { copy_cache = false; steps = 60; min_gcs = 5; max_steps = 3000 }

(* Table III's instrumented runs (Exp_table3.instrumented_run). *)
let copy_cache_mode = { copy_cache = true; steps = 30; min_gcs = 3; max_steps = 400 }

let suite_entry acc mode ~seed (w : Workload.t) =
  let t_setup = now () in
  let machine = Machine.create ~phys_mib:1024 Cost_model.xeon_6130 in
  let make_cfg = if mode.copy_cache then memmove_measured_cfg else svagc_cfg in
  let jvm =
    Runner.make_jvm ~heap_factor:1.2 ~machine
      ~collector_of:(bind_collector acc make_cfg) w
  in
  if mode.copy_cache then Jvm.set_measure_core jvm (Some measure_core);
  let step = w.Workload.setup jvm (Rng.create ~seed) in
  let tlb = (Machine.core machine measure_core).Machine.tlb in
  if mode.copy_cache then begin
    Cache_sim.reset_stats machine.Machine.llc;
    Tlb.reset_stats tlb
  end;
  let setup_s = now () -. t_setup in
  let perf0 = Perf.copy machine.Machine.perf in
  let executed = ref 0 in
  let excluded0 = acc.excluded_s in
  acc.measuring <- true;
  let t0 = now () in
  (try
     span acc k_run (fun () ->
         while
           !executed < mode.steps
           || (Jvm.gc_count jvm < mode.min_gcs && !executed < mode.max_steps)
         do
           span acc k_step step;
           incr executed
         done)
   with e ->
     fail acc
       ~ops:(max 1 (mode.min_gcs - Jvm.gc_count jvm))
       (Printf.sprintf "%s: %s" w.Workload.name (Printexc.to_string e)));
  let t1 = now () in
  acc.measuring <- false;
  acc.host_s <- acc.host_s +. (t1 -. t0) -. (acc.excluded_s -. excluded0);
  acc.steps <- acc.steps + !executed;
  let delta = Perf.diff ~after:machine.Machine.perf ~before:perf0 in
  Perf.add ~into:acc.perf delta;
  digest_perf acc.digest delta;
  Printf.bprintf acc.digest "j %s %d %h %h\n" w.Workload.name !executed
    (Jvm.app_ns jvm) (Jvm.gc_ns jvm);
  acc.sim_gc_ns <- acc.sim_gc_ns +. Jvm.gc_ns jvm;
  acc.sim_total_ns <- acc.sim_total_ns +. Jvm.total_ns jvm;
  let llc = Cache_sim.stats machine.Machine.llc and ts = Tlb.stats tlb in
  acc.llc_accesses <- acc.llc_accesses + llc.Cache_sim.accesses;
  acc.llc_misses <- acc.llc_misses + llc.Cache_sim.misses;
  acc.tlb_hits <- acc.tlb_hits + ts.Tlb.hits;
  acc.tlb_misses <- acc.tlb_misses + ts.Tlb.misses;
  (* As Runner.run does: hand the simulated frames back before the next
     benchmark builds its machine. *)
  Gc.full_major ();
  setup_s

let entry_seed ~seed ~pass ~index = Hashtbl.hash (seed, pass, index)

let run_suite acc mode ~seed ~passes =
  for pass = 0 to passes - 1 do
    let host0 = acc.host_s in
    let setup =
      List.mapi
        (fun index w -> suite_entry acc mode ~seed:(entry_seed ~seed ~pass ~index) w)
        Spec.suite
    in
    acc.setup_samples <- List.fold_left ( +. ) 0.0 setup :: acc.setup_samples;
    acc.pass_host_s <- (acc.host_s -. host0) :: acc.pass_host_s
  done

(* ---- fleet-pressure ---- *)

type fleet_ref = { ref_count : int; ref_p99_ns : float }

(* The SVAGC row of BENCH_fleet.json, which fleet_bench records for
   [Fleet.default]. *)
let read_fleet_ref path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let json = Json.of_string text in
  let get k j =
    match Json.member k j with
    | Some v -> v
    | None -> raise (Json.Parse_error ("missing " ^ k))
  in
  let row =
    List.find
      (fun r -> Json.string_exn (get "collector" r) = "SVAGC")
      (Json.to_list_exn (get "results" json))
  in
  let pause = get "gc_pause_ns" row in
  {
    ref_count = int_of_float (Json.number_exn (get "count" pause));
    ref_p99_ns = Json.number_exn (get "p99" pause);
  }

let fleet_replay acc ~config =
  acc.gc_seen <- false;
  let excluded0 = acc.excluded_s in
  let fleet_id = Option.map (fun sp -> Spans.enter sp k_fleet) acc.spans in
  let t0 = now () in
  acc.last_bind <- t0;
  acc.measuring <- true;
  let result =
    match Fleet.run ~collector_of:(bind_collector acc svagc_cfg) ~label:"SVAGC" config with
    | r -> Some r
    | exception e ->
      fail acc ~ops:1 (Printf.sprintf "fleet seed %d: %s" config.Fleet.seed
                         (Printexc.to_string e));
      None
  in
  let t1 = now () in
  acc.measuring <- false;
  let setup_end = acc.last_bind in
  (match (acc.spans, fleet_id) with
  | Some sp, Some id ->
    Spans.leave sp id;
    Spans.add_closed sp ~kind:k_setup ~start:t0 ~stop:setup_end ~parent:id
  | _ -> ());
  acc.setup_samples <- (setup_end -. t0) :: acc.setup_samples;
  let host_s = t1 -. setup_end -. (acc.excluded_s -. excluded0) in
  acc.host_s <- acc.host_s +. host_s;
  acc.pass_host_s <- host_s :: acc.pass_host_s;
  Option.iter
    (fun (r : Fleet.result) ->
      Perf.add ~into:acc.perf r.Fleet.perf;
      digest_perf acc.digest r.Fleet.perf;
      Printf.bprintf acc.digest "f %d %d %d %d %d %h %h %h %h %h\n" r.Fleet.waves
        r.admitted r.queued r.rejected (Histogram.count r.pauses)
        (Histogram.p50 r.pauses) (Histogram.p99 r.pauses) (Histogram.p99 r.stalls)
        r.max_tenant_p99_pause r.total_ns;
      acc.admitted <- acc.admitted + r.admitted;
      acc.queued <- acc.queued + r.queued;
      acc.rejected <- acc.rejected + r.rejected;
      acc.fleet_pauses <- acc.fleet_pauses + Histogram.count r.pauses;
      Histogram.merge_into ~into:acc.stalls_ns r.stalls;
      Array.iter
        (fun (s : Fleet.tenant_stats) ->
          acc.sim_gc_ns <- acc.sim_gc_ns +. s.Fleet.t_gc_ns;
          acc.sim_total_ns <- acc.sim_total_ns +. s.t_gc_ns +. s.t_app_ns)
        r.stats)
    result;
  result

let fleet_seed ~seed ~replay =
  if replay = 0 then Fleet.default.Fleet.seed else Hashtbl.hash (seed, replay)

(* Replay 0 is [Fleet.default] itself, so every run re-checks the
   committed BENCH_fleet.json row; later replays vary the fleet seed. *)
let run_fleet acc ~checks ~seed ~passes =
  let reference =
    match read_fleet_ref "BENCH_fleet.json" with
    | r -> Some r
    | exception e ->
      checks := Printf.sprintf "BENCH_fleet.json: %s" (Printexc.to_string e) :: !checks;
      None
  in
  for replay = 0 to passes - 1 do
    let config = { Fleet.default with Fleet.seed = fleet_seed ~seed ~replay } in
    match (fleet_replay acc ~config, reference) with
    | Some r, Some expected when replay = 0 ->
      let count = Histogram.count r.Fleet.pauses and p99 = Histogram.p99 r.Fleet.pauses in
      let ok = count = expected.ref_count && p99 = expected.ref_p99_ns in
      Printf.printf
        "fleet reference replay: %d pauses, p99 %.4f us (BENCH_fleet.json: %d, %.4f us) %s\n"
        count (p99 /. 1e3) expected.ref_count (expected.ref_p99_ns /. 1e3)
        (if ok then "match" else "MISMATCH");
      if not ok then
        checks := "fleet reference replay differs from BENCH_fleet.json" :: !checks
    | _ -> ()
  done

(* ---- Workload table ---- *)

type workload = {
  w_name : string;
  nominal_pass_s : float;  (* host seconds per pass on a 2-core x86 host *)
  min_passes : int;  (* enough passes for >= 100 collections *)
  run : acc -> checks:string list ref -> seed:int -> passes:int -> unit;
  seeds : seed:int -> pass:int -> int list;  (* the inputs' seeds, for the metadata *)
}

let suite_seeds ~seed ~pass = List.mapi (fun index _ -> entry_seed ~seed ~pass ~index) Spec.suite

let workloads =
  [
    {
      w_name = "suite-swapva";
      nominal_pass_s = 2.0;
      min_passes = 2;
      run = (fun acc ~checks:_ ~seed ~passes -> run_suite acc swapva_mode ~seed ~passes);
      seeds = suite_seeds;
    };
    {
      w_name = "suite-copy-cache";
      nominal_pass_s = 12.0;
      min_passes = 3;
      run = (fun acc ~checks:_ ~seed ~passes -> run_suite acc copy_cache_mode ~seed ~passes);
      seeds = suite_seeds;
    };
    {
      w_name = "fleet-pressure";
      nominal_pass_s = 4.7;
      min_passes = 1;
      run = run_fleet;
      seeds = (fun ~seed ~pass -> [ fleet_seed ~seed ~replay:pass ]);
    };
  ]

let passes_for w ~seconds =
  max w.min_passes (int_of_float (Float.round (float_of_int seconds /. w.nominal_pass_s)))

(* ---- Metrics ---- *)

let median samples =
  let h = Histogram.create () in
  List.iter (Histogram.add h) samples;
  Histogram.p50 h

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  let mb = scan () in
  close_in ic;
  mb

let end_to_end acc =
  let q h p = Histogram.quantile h p in
  [
    ("setup_s", "s", median acc.setup_samples);
    ("host_s", "s", acc.host_s);
    ("gc_cycles_per_s", "1/s",
     Stats.ratio ~num:(float_of_int (Histogram.count acc.gc_host_ms)) ~base:acc.host_s);
    ("gc_host_ms_p50", "ms", q acc.gc_host_ms 0.5);
    ("gc_host_ms_p90", "ms", q acc.gc_host_ms 0.9);
    ("host_peak_mb", "MB", peak_rss_mb ());
    ("sim_pause_us_p50", "us", q acc.pauses_ns 0.5 /. 1e3);
    ("sim_pause_us_p90", "us", q acc.pauses_ns 0.9 /. 1e3);
    ("sim_gc_pct", "%", Stats.pct ~num:acc.sim_gc_ns ~base:acc.sim_total_ns);
  ]

(* Self time per span kind in the traced run, and the traced host time it
   is attributed against. *)
let self_by_kind sp =
  let self = Stats.self_times ~parent:(Spans.parents sp) ~dur:(Spans.durations sp) in
  Stats.sum_by ~kind:(Spans.kinds sp) ~nkinds:(Array.length kind_names) self

(* Layer rows: (metric, span kind).  [run] self time is the driver loop
   itself; [audit] and [setup] lie outside the measured region. *)
let layer_rows =
  [
    ("workloads.self_s", k_step);
    ("fleet.self_s", k_fleet);
    ("gc.collect_self_s", k_collection);
    ("gc.mark_s", k_mark);
    ("gc.forward_s", k_forward);
    ("gc.adjust_s", k_adjust);
    ("gc.compact_self_s", k_compact);
    ("core.mover_s", k_mover);
  ]

let per_layer acc ~untraced_host_s by_kind =
  let p = acc.perf in
  let f = float_of_int in
  let attributed = List.fold_left (fun s (_, k) -> s +. by_kind.(k)) 0.0 layer_rows in
  let count name v = (name, "count", f v) in
  let mover_pages = f acc.mover_bytes /. f Addr.page_size in
  List.map (fun (name, k) -> (name, "s", by_kind.(k))) layer_rows
  @ [
      count "workloads.steps" acc.steps;
      count "gc.cycles" (Histogram.count acc.gc_host_ms);
      count "gc.moved_objects" acc.moved;
      count "gc.swapped_objects" acc.swapped;
      ("gc.swap_share", "%", Stats.pct ~num:(f acc.swapped) ~base:(f acc.moved));
      ("core.mover_ns_per_page", "ns",
       Stats.ratio ~num:(by_kind.(k_mover) *. 1e9) ~base:mover_pages);
      count "kernel.swapva_calls" p.Perf.swapva_calls;
      count "kernel.ptes_swapped" p.ptes_swapped;
      count "kernel.pt_walks" p.pt_walks;
      ("kernel.pmd_cache_hit_pct", "%",
       Stats.pct ~num:(f p.pmd_cache_hits) ~base:(f (p.pmd_cache_hits + p.pt_walks)));
      count "kernel.leaf_runs" p.leaf_runs;
      count "kernel.runs_coalesced" p.runs_coalesced;
      count "kernel.memmove_calls" p.memmove_calls;
      ("kernel.bytes_copied", "B", f p.bytes_copied);
      ("kernel.bytes_remapped", "B", f p.bytes_remapped);
      count "kernel.ipis_sent" p.ipis_sent;
      count "kernel.shootdown_broadcasts" p.shootdown_broadcasts;
      count "kernel.tlb_flush_local" p.tlb_flush_local;
      count "kernel.swap_retries" p.swap_retries;
      count "kernel.swap_fallbacks" p.swap_fallbacks;
      count "vmem.llc_accesses" acc.llc_accesses;
      ("vmem.llc_miss_pct", "%",
       Stats.pct ~num:(f acc.llc_misses) ~base:(f acc.llc_accesses));
      count "vmem.tlb_lookups" (acc.tlb_hits + acc.tlb_misses);
      ("vmem.tlb_miss_pct", "%",
       Stats.pct ~num:(f acc.tlb_misses) ~base:(f (acc.tlb_hits + acc.tlb_misses)));
      ("heap.alloc_bytes", "B", f p.alloc_bytes);
      ("heap.alloc_waste_bytes", "B", f p.alloc_waste_bytes);
      count "reclaim.major_faults" p.major_faults;
      count "reclaim.pages_swapped_out" p.pages_swapped_out;
      count "reclaim.pages_swapped_in" p.pages_swapped_in;
      count "reclaim.scans" p.reclaim_scans;
      count "reclaim.kswapd_wakes" p.kswapd_wakes;
      ("reclaim.evict_per_scan", "ratio",
       Stats.ratio ~num:(f p.pages_swapped_out) ~base:(f p.reclaim_scans));
      count "fleet.admitted" acc.admitted;
      count "fleet.queued" acc.queued;
      count "fleet.rejected" acc.rejected;
      count "fleet.tier_demotions" p.tier_demotions;
      count "fleet.tier_promotions" p.tier_promotions;
      count "fleet.pauses" acc.fleet_pauses;
      ("fleet.sim_pause_us_p99", "us", Histogram.p99 acc.pauses_ns /. 1e3);
      ("fleet.sim_stall_us_p99", "us", Histogram.p99 acc.stalls_ns /. 1e3);
      count "sched.scheduled" p.sched_scheduled;
      count "sched.dispatched" p.sched_dispatched;
      count "sched.cancelled" p.sched_cancelled;
      ("trace.host_s", "s", acc.host_s);
      ("trace.unattributed_s", "s", acc.host_s -. attributed);
      ("trace.attributed_pct", "%", Stats.pct ~num:attributed ~base:acc.host_s);
      ("trace.overhead_pct", "%",
       Stats.pct ~num:(acc.host_s -. untraced_host_s) ~base:untraced_host_s);
    ]

let print_attribution ~workload acc by_kind =
  Printf.printf "attribution (%s, traced host_s %.3f s)\n" workload acc.host_s;
  let attributed = ref 0.0 in
  List.iter
    (fun (name, k) ->
      attributed := !attributed +. by_kind.(k);
      Printf.printf "  %-22s %10.4f s %6.2f%%\n" name by_kind.(k)
        (Stats.pct ~num:by_kind.(k) ~base:acc.host_s))
    layer_rows;
  let rest = acc.host_s -. !attributed in
  Printf.printf "  %-22s %10.4f s %6.2f%%\n" "unattributed" rest
    (Stats.pct ~num:rest ~base:acc.host_s);
  Printf.printf "  excluded from host_s: output checks %.4f s, fleet set-up %.4f s\n"
    by_kind.(k_audit) by_kind.(k_setup)

let percentile_note name h =
  let n = Histogram.count h in
  Printf.printf "%s: %d samples, highest reportable percentile %s\n" name n
    (match Stats.highest_reportable [ 0.5; 0.9; 0.99; 0.999 ] n with
    | Some q -> Printf.sprintf "p%g" (q *. 100.0)
    | None -> "none")

(* ---- Main ---- *)

(* Where the traced run writes its spans, relative to the checkout root. *)
let spans_dir = ".perfbench"

let metrics_json rows =
  Json.Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
       rows)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let git_sha = ref "unknown" and lib_lines = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S target measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--git-sha", Arg.Set_string git_sha, "SHA recorded in the metadata");
      ("--lib-lines", Arg.Set_int lib_lines, "N lib/ .ml/.mli line count");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "svagc_perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload; expected one of: "
        ^ String.concat ", " (List.map (fun w -> w.w_name) workloads));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  let passes = passes_for w ~seconds:!seconds in
  let checks = ref [] in
  let measure ~traced =
    let acc = make_acc ~traced in
    w.run acc ~checks ~seed:!seed ~passes;
    acc
  in
  let untraced = measure ~traced:false in
  let digest acc = Digest.to_hex (Digest.string (Buffer.contents acc.digest)) in
  Printf.printf "digest %s seed %d: %s\n" w.w_name !seed (digest untraced);
  let result_acc, rows =
    if !trace = 0 then (untraced, end_to_end untraced)
    else begin
      let traced = measure ~traced:true in
      Printf.printf "digest %s seed %d (traced): %s\n" w.w_name !seed (digest traced);
      if digest traced <> digest untraced then
        checks := "traced digest differs from untraced digest" :: !checks;
      let sp = Option.get traced.spans in
      let by_kind = self_by_kind sp in
      print_attribution ~workload:w.w_name traced by_kind;
      (try
         if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
         Spans.write sp ~names:kind_names
           (Filename.concat spans_dir
              (Printf.sprintf "spans-%s-seed%d.csv" w.w_name !seed))
       with Sys_error e -> Printf.printf "spans not written: %s\n" e);
      (traced, per_layer traced ~untraced_host_s:untraced.host_s by_kind)
    end
  in
  Printf.printf "pass host_s: %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") untraced.pass_host_s));
  percentile_note "gc_host_ms" untraced.gc_host_ms;
  percentile_note "sim_pause_us" untraced.pauses_ns;
  List.iter (fun e -> Printf.printf "failed op: %s\n" e) (List.rev result_acc.errors);
  List.iter (fun e -> Printf.printf "check failed: %s\n" e) (List.rev !checks);
  let meta =
    Json.Obj
      [
        ("workload", Json.Str w.w_name);
        ("seed", Json.Int !seed);
        ("seconds", Json.Int !seconds);
        ("passes", Json.Int passes);
        ( "input_seeds",
          Json.List
            (List.init passes (fun pass ->
                 Json.List (List.map (fun s -> Json.Int s) (w.seeds ~seed:!seed ~pass))))
        );
        ("trace", Json.Int !trace);
        ("git_sha", Json.Str !git_sha);
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("domains", Json.Int (Domain_pool.domains (Domain_pool.global ())));
        ("lib_lines", Json.Int !lib_lines);
        ("digest", Json.Str (digest untraced));
      ]
  in
  Printf.printf "meta %s\n" (Json.to_string meta);
  let attempted = untraced.attempted + if !trace = 1 then result_acc.attempted else 0 in
  let failed = untraced.failed + if !trace = 1 then result_acc.failed else 0 in
  let correct = failed = 0 && !checks = [] && attempted > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics_json rows);
          ]))
