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

(* --- work-steal makespan: flat replay vs the deque executor --- *)

module Work_steal = Svagc_par.Work_steal

(* Few distinct cost values (zeros and repeats included) make clock ties,
   and so the tie-breaks, common; [threads] may exceed the task count. *)
let makespan_identity ~seed =
  let rng = Rng.create ~seed in
  let threads = 1 + Rng.int rng 16 in
  let n = Rng.int rng 501 in
  let costs = Array.init n (fun _ -> float_of_int (Rng.int rng 4) *. 2.5) in
  let steal_ns = if Rng.bool rng then 0.0 else 1.0 +. float_of_int (Rng.int rng 8) in
  let barrier_ns = float_of_int (Rng.int rng 3) in
  let flat = Work_steal.makespan ~threads ~steal_ns ~barrier_ns costs in
  let reference =
    (Work_steal.run ~threads ~steal_ns ~barrier_ns ~cost:Fun.id ~execute:ignore
       costs)
      .Work_steal.makespan_ns
  in
  if Int64.bits_of_float flat = Int64.bits_of_float reference then (1, [])
  else
    ( 1,
      [
        mk "makespan-identity"
          "seed=%d (%d threads, %d tasks, steal %g ns): flat makespan %h, \
           Work_steal.run %h"
          seed threads n steal_ns flat reference;
      ] )

(* --- host-parallelism identity: runs mapped at 1 vs N domains --- *)

module Domain_pool = Svagc_par.Domain_pool
module Heap = Svagc_heap.Heap
module Lisp2 = Svagc_gc.Lisp2
module Gc_stats = Svagc_gc.Gc_stats

(* Everything a GC run can observably produce, with every float
   bit-cast: the comparison below is bit-identity, not tolerance. *)
type par_observation = {
  po_cycles : (int64 list * int list) list;
      (** per GC cycle: float-bit fields, integer fields *)
  po_counters : (string * int) list;
  po_layout : (int * int) list;
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
   structure that every LISP2 phase has real work. *)
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

(* One independent run on its own machine: two LISP2 cycles (the second
   re-marks a compacted heap), everything digested. *)
let par_workload seed =
  let machine = Machine.create ~ncores:4 ~phys_mib:128 Cost_model.xeon_6130 in
  let proc = Process.create ~name:"par-identity" machine in
  let heap = Heap.create proc ~size_bytes:(12 * 1024 * 1024) () in
  let rng = Rng.create ~seed in
  let cfg = Lisp2.config ~label:"par-identity" ~threads:4 () in
  par_populate rng heap ~objects:140;
  let c1 = Lisp2.collect cfg heap in
  par_populate rng heap ~objects:60;
  let c2 = Lisp2.collect cfg heap in
  {
    po_cycles = [ cycle_digest c1; cycle_digest c2 ];
    po_counters = Perf.to_assoc machine.Machine.perf;
    po_layout = layout_of proc;
  }

let par_identity ?(domains = 4) ?(runs = 4) ~seed () =
  let items = ref 0 and findings = ref [] in
  let law ok f =
    incr items;
    if not ok then findings := f () :: !findings
  in
  let seeds = List.init runs (fun i -> seed + (7919 * i)) in
  let observe d = Domain_pool.map (Domain_pool.create ~domains:d) par_workload seeds in
  let base = observe 1 and par = observe domains in
  List.iter2
    (fun s (b, p) ->
      let label = Printf.sprintf "par run seed=%d (1 vs %d domains)" s domains in
      law (b.po_cycles = p.po_cycles) (fun () ->
          mk "par-identity"
            "%s: GC cycle stats (clocks or accounting) are not bit-identical"
            label);
      law (b.po_counters = p.po_counters) (fun () ->
          match first_counter_mismatch b.po_counters p.po_counters with
          | Some ((k, v1), (_, v2)) ->
            mk "par-identity" "%s: counter %s = %d (1 domain) vs %d (%d domains)"
              label k v1 v2 domains
          | None -> mk "par-identity" "%s: counter sets differ" label);
      law (b.po_layout = p.po_layout) (fun () ->
          mk "par-identity" "%s: final heap layouts differ" label))
    seeds (List.combine base par);
  (!items, List.rev !findings)

let arena_sizes = [| 384; 512; 1024; 1536; 2048 |]

let run_suite ?(cases = 40) ?(seed = 0xC0FFEE) () =
  let items = ref 0 and findings = ref [] in
  for i = 0 to cases - 1 do
    let arena_pages = arena_sizes.(i mod Array.length arena_sizes) in
    let case = gen_case ~arena_pages ~seed:(seed + i) () in
    let n1, f1 = compare_case case in
    let n2, f2 = zero_fault_identity case in
    let n3, f3 = makespan_identity ~seed:(seed + i) in
    items := !items + n1 + n2 + n3;
    findings := !findings @ f1 @ f2 @ f3
  done;
  (* Host-parallelism identity is a full double GC per run, so map a
     handful of seeds rather than one per case. *)
  let n, f = par_identity ~runs:((cases / 16) + 2) ~seed () in
  items := !items + n;
  findings := !findings @ f;
  (!items, !findings)
