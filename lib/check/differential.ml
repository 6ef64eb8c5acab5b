open Svagc_vmem
module Rng = Svagc_util.Rng
module Process = Svagc_kernel.Process
module Swapva = Svagc_kernel.Swapva

type case = {
  seed : int;
  arena_pages : int;
  requests : Swapva.request list;
}

(* 1 GiB: PMD-aligned, comfortably above any default heap placement. *)
let arena_base = 1 lsl 30

let page = Addr.page_size

(* Two disjoint page ranges of [pages] inside [0, arena_pages), built by
   construction (no rejection sampling, so generation is O(1) and
   deterministic). *)
let disjoint_pair rng ~arena_pages ~pages =
  let a = Rng.int rng (arena_pages - (2 * pages) + 1) in
  let b = a + pages + Rng.int rng (arena_pages - a - (2 * pages) + 1) in
  if Rng.bool rng then (a, b) else (b, a)

let gen_case ?(arena_pages = 1536) ?(max_requests = 10) ~seed () =
  if arena_pages < 128 then invalid_arg "Differential.gen_case: arena too small";
  let rng = Rng.create ~seed in
  let nreq = 1 + Rng.int rng max_requests in
  let requests =
    List.init nreq (fun _ ->
        let leaf_slots = arena_pages / 512 in
        if leaf_slots >= 2 && Rng.int rng 4 = 0 then begin
          (* Whole PMD-aligned 512-page runs: the only shape the leaf-swap
             path accelerates, so make sure schedules contain them. *)
          let a = Rng.int rng leaf_slots in
          let b = (a + 1 + Rng.int rng (leaf_slots - 1)) mod leaf_slots in
          {
            Swapva.src = arena_base + (a * 512 * page);
            dst = arena_base + (b * 512 * page);
            pages = 512;
          }
        end
        else begin
          let pages =
            if Rng.bool rng then 1 + Rng.int rng 16
            else 16 + Rng.int rng (min 300 ((arena_pages / 2) - 16))
          in
          let src_page, dst_page = disjoint_pair rng ~arena_pages ~pages in
          {
            Swapva.src = arena_base + (src_page * page);
            dst = arena_base + (dst_page * page);
            pages;
          }
        end)
  in
  { seed; arena_pages; requests }

type path = Per_page | Flat | Leaf

type replay = {
  cost : float;
  counters : (string * int) list;
  layout : (int * int) list;
}

let fresh_proc ~arena_pages =
  let machine = Machine.create ~ncores:4 ~phys_mib:64 Cost_model.xeon_6130 in
  let proc = Process.create ~name:"differential" machine in
  Address_space.map_range (Process.aspace proc) ~va:arena_base
    ~pages:arena_pages;
  (machine, proc)

let layout_of proc =
  let pt = Address_space.page_table (Process.aspace proc) in
  let acc = ref [] in
  Page_table.iter_mapped pt ~f:(fun ~vpn ~frame -> acc := (vpn, frame) :: !acc);
  List.sort compare !acc

(* [leaf_runs] counts how many PMD-leaf slices the flat engine walked —
   pure bookkeeping of the fast path itself, explicitly outside the
   equivalence contract (the per-page reference never sets it). *)
let counters_of machine =
  List.map
    (fun (k, v) -> if k = "leaf_runs" then (k, 0) else (k, v))
    (Perf.to_assoc machine.Machine.perf)

let replay path case =
  let machine, proc = fresh_proc ~arena_pages:case.arena_pages in
  let engine req =
    match path with
    | Per_page -> Swapva.swap_disjoint_per_page proc ~pmd_caching:true req
    | Flat ->
      Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:false req
    | Leaf -> Swapva.swap_disjoint_flat proc ~pmd_caching:true ~leaf_swap:true req
  in
  let cost =
    List.fold_left (fun acc req -> acc +. engine req) 0.0 case.requests
  in
  { cost; counters = counters_of machine; layout = layout_of proc }

let mk invariant fmt =
  Format.kasprintf (fun detail -> { Check.invariant; detail }) fmt

let first_counter_mismatch c1 c2 =
  List.find_opt (fun ((k1, v1), (_, v2)) -> ignore k1; v1 <> v2)
    (List.combine c1 c2)

let compare_case case =
  let items = ref 0 and findings = ref [] in
  let law ok f =
    incr items;
    if not ok then findings := f () :: !findings
  in
  let reference = replay Per_page case in
  let flat = replay Flat case in
  let leaf = replay Leaf case in
  let label = Printf.sprintf "case seed=%d (%d requests)" case.seed
      (List.length case.requests)
  in
  law (flat.cost = reference.cost) (fun () ->
      mk "differential-cost"
        "%s: flat-engine cost %.17g <> per-page reference %.17g" label
        flat.cost reference.cost);
  law (flat.layout = reference.layout) (fun () ->
      mk "differential-layout"
        "%s: flat-engine final mapping differs from the per-page reference"
        label);
  law (flat.counters = reference.counters) (fun () ->
      match first_counter_mismatch flat.counters reference.counters with
      | Some ((k, v1), (_, v2)) ->
        mk "differential-counters" "%s: %s = %d (flat) vs %d (per-page)" label
          k v1 v2
      | None -> mk "differential-counters" "%s: counter sets differ" label);
  law (leaf.layout = reference.layout) (fun () ->
      mk "differential-layout"
        "%s: pmd-leaf final mapping differs from the per-page reference" label);
  law (leaf.cost <= flat.cost +. 1e-9) (fun () ->
      mk "differential-cost"
        "%s: pmd-leaf cost %.17g exceeds the flat-engine cost %.17g" label
        leaf.cost flat.cost);
  (!items + List.length reference.layout, List.rev !findings)

(* --- rate-0 fault identity through the full syscall boundary --- *)

let zero_rate_spec =
  match Svagc_fault.Fault_spec.parse "pte:p=0,lock:p=0,ipi:p=0" with
  | Ok spec -> spec
  | Error msg -> failwith ("Differential.zero_rate_spec: " ^ msg)

type syscall_replay = {
  s_outcomes : (float * int * bool) list;  (** ns, completed, failed? *)
  s_counters : (string * int) list;
  s_layout : (int * int) list;
}

let syscall_replay ~with_zero_injector case =
  let machine, proc = fresh_proc ~arena_pages:case.arena_pages in
  if with_zero_injector then
    machine.Machine.fault <-
      Some (Svagc_fault.Injector.create zero_rate_spec ~seed:case.seed);
  (* Broadcast flushing exercises the IPI delivery path (where the ipi
     clause would fire); the aggregated call uses the SVAGC defaults. *)
  let separated = Swapva.swap_separated proc ~opts:Swapva.naive_opts case.requests in
  let aggregated =
    Swapva.swap_aggregated proc ~opts:Swapva.default_opts case.requests
  in
  let digest (o : Swapva.outcome) =
    (o.Swapva.ns, o.Swapva.completed, Option.is_some o.Swapva.failure)
  in
  {
    s_outcomes = [ digest separated; digest aggregated ];
    s_counters = counters_of machine;
    s_layout = layout_of proc;
  }

let zero_fault_identity case =
  let items = ref 0 and findings = ref [] in
  let law ok f =
    incr items;
    if not ok then findings := f () :: !findings
  in
  let plain = syscall_replay ~with_zero_injector:false case in
  let zeroed = syscall_replay ~with_zero_injector:true case in
  let label = Printf.sprintf "case seed=%d" case.seed in
  law (plain.s_outcomes = zeroed.s_outcomes) (fun () ->
      mk "fault-rate0" "%s: syscall outcomes differ under a rate-0 injector"
        label);
  law (plain.s_counters = zeroed.s_counters) (fun () ->
      match first_counter_mismatch plain.s_counters zeroed.s_counters with
      | Some ((k, v1), (_, v2)) ->
        mk "fault-rate0" "%s: %s = %d (no injector) vs %d (rate-0 injector)"
          label k v1 v2
      | None -> mk "fault-rate0" "%s: counters differ" label);
  law (plain.s_layout = zeroed.s_layout) (fun () ->
      mk "fault-rate0" "%s: final mapping differs under a rate-0 injector"
        label);
  (!items, List.rev !findings)

(* --- scheduler identity: calendar vs lockstep scan --- *)

module Engine = Svagc_sched.Engine

type sched_case = {
  sc_seed : int;
  sc_firsts : float array;  (** entry ns per proc (small ints: many ties) *)
  sc_plans : int array array;  (** per-proc stride sequence; 0 keeps ties *)
}

(* Strides and entry times are drawn UP FRONT so both replays consume the
   identical schedule regardless of interleaving; small integer ns with
   stride 0 allowed makes same-instant ties — the FIFO tie-break under
   test — common rather than exceptional. *)
let gen_sched_case ?(max_procs = 12) ?(max_events = 16) ~seed () =
  let rng = Rng.create ~seed in
  let nprocs = 1 + Rng.int rng max_procs in
  let firsts =
    Array.init nprocs (fun _ -> float_of_int (Rng.int rng 4))
  in
  let plans =
    Array.init nprocs (fun _ ->
        Array.init (Rng.int rng max_events) (fun _ -> Rng.int rng 3))
  in
  { sc_seed = seed; sc_firsts = firsts; sc_plans = plans }

(* Replay one schedule through an engine, logging every firing as
   (proc index, simulated ns) — the whole observable behaviour. *)
let sched_replay case engine =
  let order = ref [] in
  let procs =
    Array.mapi
      (fun i plan ->
        let pos = ref 0 in
        Engine.proc ~first_ns:case.sc_firsts.(i) (fun ~now ->
            order := (i, now) :: !order;
            if !pos >= Array.length plan then Engine.done_ns
            else begin
              let d = plan.(!pos) in
              incr pos;
              now +. float_of_int d
            end))
      case.sc_plans
  in
  let fired =
    match engine with
    | `Scan -> Engine.run_lockstep_scan procs
    | `Calendar -> Engine.run_calendar procs
  in
  (fired, List.rev !order)

let sched_identity case =
  let items = ref 0 and findings = ref [] in
  let law ok f =
    incr items;
    if not ok then findings := f () :: !findings
  in
  let scan_n, scan_order = sched_replay case `Scan in
  let cal_n, cal_order = sched_replay case `Calendar in
  let label =
    Printf.sprintf "sched case seed=%d (%d procs)" case.sc_seed
      (Array.length case.sc_plans)
  in
  law (scan_n = cal_n) (fun () ->
      mk "sched-identity" "%s: calendar fired %d events, lockstep scan %d"
        label cal_n scan_n);
  law (scan_order = cal_order) (fun () ->
      let rec first_div k a b =
        match (a, b) with
        | (i1, t1) :: _, (i2, t2) :: _ when i1 <> i2 || t1 <> t2 ->
          Printf.sprintf "event #%d: calendar (proc %d, %g ns) vs scan (proc \
                          %d, %g ns)"
            k i2 t2 i1 t1
        | _ :: a, _ :: b -> first_div (k + 1) a b
        | _ -> "one replay is a prefix of the other"
      in
      mk "sched-identity" "%s: firing orders diverge: %s" label
        (first_div 0 scan_order cal_order));
  (!items + scan_n, List.rev !findings)

(* --- host-parallelism identity: 1 domain vs N domains --- *)

module Domain_pool = Svagc_par.Domain_pool
module Par_sweep = Svagc_par.Par_sweep
module Heap = Svagc_heap.Heap
module Lisp2 = Svagc_gc.Lisp2
module Gc_stats = Svagc_gc.Gc_stats
module Tracer = Svagc_trace.Tracer
module Chrome_trace = Svagc_trace.Chrome_trace

(* Everything a GC-plus-sweep workload can observably produce, with every
   float bit-cast: the comparison below is bit-identity, not tolerance. *)
type par_observation = {
  po_cycles : (int64 list * int list) list;
      (** per GC cycle: float-bit fields, integer fields *)
  po_counters : (string * int) list;
  po_layout : (int * int) list;
  po_trace : string;  (** canonical Chrome JSON, compared byte for byte *)
  po_sweep_ints : int list;
  po_sweep_bits : int64 list;
  po_sweep_checksums : int64 list;
  po_checksum : int64;
  po_checksum_ref : int64;
  po_safety : int * Check.finding list;
}

let cycle_digest (c : Gc_stats.cycle) =
  ( List.map Int64.bits_of_float
      [
        c.Gc_stats.mark_ns;
        c.Gc_stats.forward_ns;
        c.Gc_stats.adjust_ns;
        c.Gc_stats.compact_ns;
        c.Gc_stats.concurrent_ns;
      ],
    [
      c.Gc_stats.live_objects;
      c.Gc_stats.live_bytes;
      c.Gc_stats.reclaimed_bytes;
      c.Gc_stats.moved_objects;
      c.Gc_stats.swapped_objects;
      c.Gc_stats.bytes_copied;
      c.Gc_stats.bytes_remapped;
    ] )

(* Deterministic object soup: a mix of small and page-aligned swappable
   objects, most rooted and chained both ways, the rest garbage — enough
   structure that every LISP2 phase (and both fan-out sites: mark's
   flag-clear, adjust's rewrites) has real work. *)
let par_populate rng heap ~objects =
  let prev = ref None in
  for i = 0 to objects - 1 do
    let size =
      if Rng.int rng 10 < 3 then (40 * 1024) + Rng.int rng (48 * 1024)
      else 64 + Rng.int rng 1024
    in
    let obj = Heap.alloc heap ~size ~n_refs:2 ~cls:(i mod 3) in
    if Rng.int rng 3 > 0 then begin
      Heap.add_root heap obj;
      (match !prev with
      | Some p ->
        Heap.set_ref heap obj ~slot:0 (Some p);
        Heap.set_ref heap p ~slot:1 (Some obj)
      | None -> ());
      prev := Some obj
    end
  done

(* One full run of the workload under whatever global pool is installed:
   two traced LISP2 cycles (the second re-marks a compacted heap) plus a
   sharded page-table sweep, everything digested. *)
let par_workload ~seed () =
  let machine = Machine.create ~ncores:4 ~phys_mib:128 Cost_model.xeon_6130 in
  let proc = Process.create ~name:"par-identity" machine in
  let heap = Heap.create proc ~size_bytes:(12 * 1024 * 1024) () in
  let pt = Address_space.page_table (Process.aspace proc) in
  let rng = Rng.create ~seed in
  let obs, tracer =
    Tracer.with_tracer (fun () ->
        Tracer.set_counter_source (fun () ->
            Perf.to_assoc machine.Machine.perf);
        Fun.protect ~finally:Tracer.clear_counter_source (fun () ->
            let cfg = Lisp2.config ~label:"par-identity" ~threads:4 () in
            par_populate rng heap ~objects:140;
            let c1 = Lisp2.collect cfg heap in
            par_populate rng heap ~objects:60;
            let c2 = Lisp2.collect cfg heap in
            let va = Heap.base heap in
            let pages = (Heap.limit heap - va) / Addr.page_size in
            let sweep = Par_sweep.run machine pt ~va ~pages ~shards:8 in
            let reference = Par_sweep.checksum_reference pt ~va ~pages in
            (c1, c2, sweep, reference)))
  in
  let c1, c2, sweep, reference = obs in
  let shard_list = Array.to_list sweep.Par_sweep.shards in
  {
    po_cycles = [ cycle_digest c1; cycle_digest c2 ];
    po_counters = Perf.to_assoc machine.Machine.perf;
    po_layout = layout_of proc;
    po_trace = Chrome_trace.to_string tracer;
    po_sweep_ints =
      sweep.Par_sweep.leaves :: sweep.Par_sweep.present
      :: sweep.Par_sweep.swapped
      :: List.concat_map
           (fun s ->
             [
               s.Par_sweep.ss_shard;
               s.Par_sweep.ss_leaf_lo;
               s.Par_sweep.ss_leaf_hi;
               s.Par_sweep.ss_leaves;
               s.Par_sweep.ss_present;
               s.Par_sweep.ss_swapped;
             ])
           shard_list;
    po_sweep_bits =
      Int64.bits_of_float sweep.Par_sweep.walk_ns
      :: Int64.bits_of_float sweep.Par_sweep.makespan_ns
      :: List.map
           (fun s -> Int64.bits_of_float s.Par_sweep.ss_cost_ns)
           shard_list;
    po_sweep_checksums =
      List.map (fun s -> s.Par_sweep.ss_checksum) shard_list;
    po_checksum = sweep.Par_sweep.checksum;
    po_checksum_ref = reference;
    po_safety = Check.domain_safety sweep;
  }

let first_byte_mismatch a b =
  let n = min (String.length a) (String.length b) in
  let rec go i =
    if i >= n then n else if a.[i] <> b.[i] then i else go (i + 1)
  in
  go 0

let par_identity ?(domains = 4) ~seed () =
  let items = ref 0 and findings = ref [] in
  let law ok f =
    incr items;
    if not ok then findings := f () :: !findings
  in
  let base = Domain_pool.with_global ~domains:1 (par_workload ~seed) in
  let par = Domain_pool.with_global ~domains (par_workload ~seed) in
  let label = Printf.sprintf "par case seed=%d (1 vs %d domains)" seed domains in
  List.iter
    (fun (who, o) ->
      let n, f = o.po_safety in
      items := !items + n;
      findings := List.rev_append f !findings;
      law (o.po_checksum = o.po_checksum_ref) (fun () ->
          mk "par-identity"
            "%s: %s sweep checksum %Ld <> sequential reference %Ld" label who
            o.po_checksum o.po_checksum_ref))
    [ ("1-domain", base); (Printf.sprintf "%d-domain" domains, par) ];
  law (base.po_cycles = par.po_cycles) (fun () ->
      mk "par-identity"
        "%s: GC cycle stats (clocks or accounting) are not bit-identical"
        label);
  law (base.po_counters = par.po_counters) (fun () ->
      match first_counter_mismatch base.po_counters par.po_counters with
      | Some ((k, v1), (_, v2)) ->
        mk "par-identity" "%s: counter %s = %d (1 domain) vs %d (%d domains)"
          label k v1 v2 domains
      | None -> mk "par-identity" "%s: counter sets differ" label);
  law (base.po_layout = par.po_layout) (fun () ->
      mk "par-identity" "%s: final heap layouts differ" label);
  law (base.po_trace = par.po_trace) (fun () ->
      mk "par-identity" "%s: traces diverge at byte %d (lengths %d vs %d)"
        label
        (first_byte_mismatch base.po_trace par.po_trace)
        (String.length base.po_trace)
        (String.length par.po_trace));
  law
    (base.po_sweep_ints = par.po_sweep_ints
    && base.po_sweep_bits = par.po_sweep_bits
    && base.po_sweep_checksums = par.po_sweep_checksums
    && base.po_checksum = par.po_checksum)
    (fun () ->
      mk "par-identity" "%s: sharded sweep results are not bit-identical"
        label);
  (!items, List.rev !findings)

let arena_sizes = [| 384; 512; 1024; 1536; 2048 |]

let run_suite ?(cases = 40) ?(seed = 0xC0FFEE) () =
  let items = ref 0 and findings = ref [] in
  for i = 0 to cases - 1 do
    let arena_pages = arena_sizes.(i mod Array.length arena_sizes) in
    let case = gen_case ~arena_pages ~seed:(seed + i) () in
    let n1, f1 = compare_case case in
    let n2, f2 = zero_fault_identity case in
    let n3, f3 = sched_identity (gen_sched_case ~seed:(seed + i) ()) in
    items := !items + n1 + n2 + n3;
    findings := !findings @ f1 @ f2 @ f3
  done;
  (* Host-parallelism identity is a full double GC per replay, so run a
     handful of seeds rather than one per case. *)
  for i = 0 to (cases / 16) + 1 do
    let n, f = par_identity ~seed:(seed + (7919 * i)) () in
    items := !items + n;
    findings := !findings @ f
  done;
  (!items, !findings)
