open Svagc_vmem

type opts = {
  pmd_caching : bool;
  flush : Shootdown.policy;
  allow_overlap : bool;
  leaf_swap : bool;
}

let default_opts =
  {
    pmd_caching = true;
    flush = Shootdown.Local_pinned;
    allow_overlap = true;
    leaf_swap = false;
  }

let naive_opts =
  {
    pmd_caching = false;
    flush = Shootdown.Broadcast_per_call;
    allow_overlap = false;
    leaf_swap = false;
  }

type request = {
  src : int;
  dst : int;
  pages : int;
}

let ranges_overlap { src; dst; pages } =
  let len = pages * Addr.page_size in
  let lo = min src dst and hi = max src dst in
  hi < lo + len

module Kernel_error = Svagc_fault.Kernel_error

(* Kernel internals signal failure by raising [Kernel_error.Fault]; the
   syscall boundary ([swap] / [swap_aggregated]) catches it and returns the
   payload as a typed error.  Every raise below precedes all PTE mutation
   for its request, which is what lets the boundary promise "Error implies
   no mutation". *)
let kerror e = raise (Kernel_error.Fault e)

let validate { src; dst; pages } =
  if pages <= 0 then kerror (Kernel_error.EINVAL_bad_pages { pages });
  if not (Addr.is_page_aligned src) then
    kerror (Kernel_error.EINVAL_unaligned { va = src });
  if not (Addr.is_page_aligned dst) then
    kerror (Kernel_error.EINVAL_unaligned { va = dst });
  if src = dst then kerror Kernel_error.EINVAL_identical

let unmapped ~va () = kerror (Kernel_error.EFAULT_unmapped { va })

(* The body of Algorithm 1 for one request, page by page.  Kept as the
   executable reference for the flat engine below: property tests assert
   that both produce identical heap contents, perf-counter deltas and
   bit-identical simulated cost.  Returns the PTE-work cost (no
   syscall/flush). *)
let swap_disjoint_per_page proc ~pmd_caching req =
  let machine = Process.machine proc in
  let aspace = Process.aspace proc in
  let pt = Address_space.page_table aspace in
  let perf = machine.Machine.perf in
  (* vma-style precheck, charged via swap_setup_ns by the caller.  Mapped
     means present OR swapped out: SwapVA exchanges PTE words, and
     exchanging a swap entry just moves the slot reference — no swap-in,
     no device IO.  Only a genuinely absent page is EFAULT. *)
  for i = 0 to req.pages - 1 do
    let off = i * Addr.page_size in
    if not (Pte.is_mapped (Page_table.get_pte pt (req.src + off))) then
      unmapped ~va:(req.src + off) ();
    if not (Pte.is_mapped (Page_table.get_pte pt (req.dst + off))) then
      unmapped ~va:(req.dst + off) ()
  done;
  let walker = Pte_walker.create machine pt ~pmd_caching in
  for i = 0 to req.pages - 1 do
    let off = i * Addr.page_size in
    let slot1 = Pte_walker.get_pte walker (req.src + off) in
    let slot2 = Pte_walker.get_pte walker (req.dst + off) in
    Pte_walker.charge_lock_pair walker;
    Pte_walker.charge_lock_pair walker;
    let pte1 = Pte_walker.read_slot walker slot1 in
    let pte2 = Pte_walker.read_slot walker slot2 in
    Pte_walker.write_slot walker slot1 pte2;
    Pte_walker.write_slot walker slot2 pte1;
    perf.Perf.ptes_swapped <- perf.Perf.ptes_swapped + 2
  done;
  perf.Perf.bytes_remapped <-
    perf.Perf.bytes_remapped + (req.pages * Addr.page_size);
  Pte_walker.cost_ns walker

(* Resolve [pages] pages starting at [va] into (leaf, start, len) slices —
   one directory probe per PMD leaf instead of one per page — into the
   reusable int-packed [buf], verifying along the way that every PTE is
   mapped.  The first failure wins: a missing leaf is EFAULT at the
   cursor, an absent page EFAULT at that page.  Raising here precedes all
   mutation, so a bad range can never leave a half-swapped window behind
   (same guarantee as the per-page precheck above).  Resolution and
   presence checking model the vma walk whose cost is the caller's
   swap_setup_ns, so no walker cost is charged.  Presence is prechecked
   against the leaf's bitset words — O(1) for a fully-mapped leaf —
   instead of loading every PTE.

   [fault] is the machine's injection plane (only the syscall path passes
   it, so the engine stays injection-free when called directly).  Its
   [pte] clause is consulted once per page, in address order, after that
   page's absence check, and a firing reports the page as
   [EFAULT_unmapped] exactly as a racing unmap would — still strictly
   before any mutation. *)
let resolve_mapped_slices ?(fault = None) pt ~va ~pages ~buf =
  let absent = Pte.none in
  let ps = Addr.page_size in
  Page_table.(
    let cursor = ref va and remaining = ref pages in
    run_buf_clear buf;
    while !remaining > 0 do
      match find_leaf_record pt !cursor with
      | None -> unmapped ~va:!cursor ()
      | Some leaf ->
        let start = Addr.pte_index !cursor in
        let len = min !remaining (Addr.entries_per_table - start) in
        (match fault with
        | None -> (
          match leaf_first_unmapped leaf ~lo:start ~hi:(start + len) with
          | -1 -> ()
          | bad -> unmapped ~va:(!cursor + ((bad - start) * ps)) ())
        | Some inj ->
          let ptes = leaf_ptes leaf in
          for i = start to start + len - 1 do
            let page_va = !cursor + ((i - start) * ps) in
            if
              Array.unsafe_get ptes i = absent
              || Svagc_fault.Injector.fire inj
                   ~site:Svagc_fault.Fault_spec.Pte_resolve ~va:page_va
            then unmapped ~va:page_va ()
          done);
        run_buf_push buf leaf ~start ~len;
        cursor := !cursor + (len * ps);
        remaining := !remaining - len
    done)

(* Flat body of Algorithm 1: same observable behaviour and simulated
   cost as [swap_disjoint_per_page] — same heap mutations, same counters,
   bit-identical float — paid for with one directory walk per 512-page
   leaf instead of two walks + two cache probes per page, and no per-op
   host allocation: slice descriptors live in the machine's scratch run
   buffers, PTE slices are exchanged with tight array loops, and the
   per-page cost-model charges are emulated exactly (head pages one at a
   time until both streams sit in the PMD cache, then whole sub-runs
   through [Pte_walker.charge_steady_swap_pages], whose memo replays the
   exact reference float for a repeated (cost, pages, cached) key).

   With [leaf_swap] (the opt-in pmd_leaf_swap mode) sub-runs that cover a
   whole PMD-aligned 512-page leaf on both sides are exchanged at the PMD
   directory level in O(1) simulated cost — this mode deliberately changes
   the cost model and is excluded from the equivalence guarantee. *)
let swap_disjoint_flat ?(fault = None) proc ~pmd_caching ~leaf_swap req =
  let machine = Process.machine proc in
  let aspace = Process.aspace proc in
  let pt = Address_space.page_table aspace in
  let perf = machine.Machine.perf in
  let cost = machine.Machine.cost in
  let ps = Addr.page_size in
  let scratch = Machine.hot_scratch machine in
  let sbuf = scratch.Machine.hs_src_runs in
  let dbuf = scratch.Machine.hs_dst_runs in
  resolve_mapped_slices ~fault pt ~va:req.src ~pages:req.pages ~buf:sbuf;
  resolve_mapped_slices ~fault pt ~va:req.dst ~pages:req.pages ~buf:dbuf;
  perf.Perf.leaf_runs <-
    perf.Perf.leaf_runs + Page_table.run_buf_length sbuf
    + Page_table.run_buf_length dbuf;
  let walker = Pte_walker.create machine pt ~pmd_caching in
  let si = ref 0 and soff = ref 0 in
  let di = ref 0 and doff = ref 0 in
  let done_pages = ref 0 in
  while !done_pages < req.pages do
    let ls = Page_table.run_buf_leaf sbuf !si in
    let ss = Page_table.run_buf_start sbuf !si in
    let ns = Page_table.run_buf_len sbuf !si in
    let ld = Page_table.run_buf_leaf dbuf !di in
    let ds = Page_table.run_buf_start dbuf !di in
    let nd = Page_table.run_buf_len dbuf !di in
    let avail = min (ns - !soff) (nd - !doff) in
    let src_va = req.src + (!done_pages * ps) in
    let dst_va = req.dst + (!done_pages * ps) in
    if
      leaf_swap && avail = Addr.pages_per_pmd && ss = 0 && ds = 0 && !soff = 0
      && !doff = 0
    then begin
      (* Whole-leaf fast path: exchange the two PMD directory entries. *)
      Page_table.swap_pmd_entries pt src_va dst_va;
      Pte_walker.add_cost walker cost.Cost_model.pmd_swap_ns;
      perf.Perf.pmd_leaf_swaps <- perf.Perf.pmd_leaf_swaps + 1;
      perf.Perf.ptes_swapped <- perf.Perf.ptes_swapped + 2
    end
    else begin
      let lsp = Page_table.leaf_ptes ls in
      let ldp = Page_table.leaf_ptes ld in
      (* Head pages: emulate the reference loop page-at-a-time until both
         streams are sure PMD-cache hits (at most a couple of pages). *)
      let k = ref 0 in
      if pmd_caching then
        while
          !k < avail
          && not
               (Pte_walker.cache_holds walker (src_va + (!k * ps))
               && Pte_walker.cache_holds walker (dst_va + (!k * ps)))
        do
          Pte_walker.charge_get_pte walker (src_va + (!k * ps)) ~leaf:lsp;
          Pte_walker.charge_get_pte walker (dst_va + (!k * ps)) ~leaf:ldp;
          Pte_walker.charge_lock_pair walker;
          Pte_walker.charge_lock_pair walker;
          let slot1 = (lsp, ss + !soff + !k) in
          let slot2 = (ldp, ds + !doff + !k) in
          let pte1 = Pte_walker.read_slot walker slot1 in
          let pte2 = Pte_walker.read_slot walker slot2 in
          Pte_walker.write_slot walker slot1 pte2;
          Pte_walker.write_slot walker slot2 pte1;
          incr k
        done;
      (* Steady remainder: memoized bulk charge + slice exchange. *)
      let bulk = avail - !k in
      if bulk > 0 then begin
        Pte_walker.charge_steady_swap_pages walker ~pages:bulk ~cached:pmd_caching;
        Page_table.swap_pte_runs lsp ~start_a:(ss + !soff + !k) ldp
          ~start_b:(ds + !doff + !k) ~len:bulk
      end;
      perf.Perf.ptes_swapped <- perf.Perf.ptes_swapped + (2 * avail)
    end;
    done_pages := !done_pages + avail;
    soff := !soff + avail;
    if !soff = ns then begin
      incr si;
      soff := 0
    end;
    doff := !doff + avail;
    if !doff = nd then begin
      incr di;
      doff := 0
    end
  done;
  perf.Perf.bytes_remapped <-
    perf.Perf.bytes_remapped + (req.pages * Addr.page_size);
  Pte_walker.cost_ns walker

(* One request inside an (aggregated or single) call: setup + body.
   Overlapping requests take the Algorithm 2 path, which performs its own
   per-page local flushes; the remote-visibility shootdown is paid once per
   call by [final_flush].  Raises [Kernel_error.Fault] — always before any
   mutation for this request — on invalid input or a firing fault clause;
   the syscall boundary converts that to a typed result. *)
let request_cost proc ~opts req =
  validate req;
  let machine = Process.machine proc in
  let fault = machine.Machine.fault in
  (* The page-table lock for this request: a firing [lock] clause models
     losing the acquisition race, surfaced as the transient EAGAIN. *)
  (match fault with
  | Some inj
    when Svagc_fault.Injector.fire inj ~site:Svagc_fault.Fault_spec.Lock_acquire
           ~va:req.src ->
    kerror Kernel_error.EAGAIN_contended
  | _ -> ());
  let setup = machine.Machine.cost.Cost_model.swap_setup_ns in
  if ranges_overlap req then begin
    if not opts.allow_overlap then kerror Kernel_error.EINVAL_overlap;
    let src = min req.src req.dst and dst = max req.src req.dst in
    let per_page_flush =
      match opts.flush with
      | Shootdown.Local_pinned | Shootdown.Self_invalidate -> false
      | Shootdown.Broadcast_per_call | Shootdown.Process_targeted -> true
    in
    match
      Swap_overlap.swap ~fault proc ~pmd_caching:opts.pmd_caching ~per_page_flush
        ~src ~dst ~pages:req.pages
    with
    | Ok body -> setup +. body
    | Error e -> kerror e
  end
  else
    setup
    +. swap_disjoint_flat ~fault proc ~pmd_caching:opts.pmd_caching
         ~leaf_swap:opts.leaf_swap req

let call_overhead proc =
  let machine = Process.machine proc in
  machine.Machine.perf.Perf.syscalls <- machine.Machine.perf.Perf.syscalls + 1;
  machine.Machine.perf.Perf.swapva_calls <-
    machine.Machine.perf.Perf.swapva_calls + 1;
  machine.Machine.cost.Cost_model.syscall_ns

let final_flush proc ~opts =
  let machine = Process.machine proc in
  Shootdown.flush_after_swap machine
    ~asid:(Address_space.asid (Process.aspace proc))
    ~core:(Process.current_core proc) opts.flush

module Tracer = Svagc_trace.Tracer

(* Record one instant per SwapVA call (not per page): the syscall is the
   event the paper's aggregation argument counts.  The instant advances
   the trace cursor by the call's cost so the flush/IPI events of later
   calls spread through the enclosing compaction span. *)
let trace_call proc ~name ~requests ~ns =
  if Tracer.tracing () then begin
    let pages = List.fold_left (fun acc r -> acc + r.pages) 0 requests in
    Tracer.instant ~cat:"kernel" ~advance_ns:ns
      ~args:
        [
          ("requests", Svagc_trace.Event.Int (List.length requests));
          ("pages", Svagc_trace.Event.Int pages);
          ("core", Svagc_trace.Event.Int (Process.current_core proc));
        ]
      name
  end

type outcome = {
  ns : float;
  completed : int;
  failure : Kernel_error.t option;
}

(* What a failed request still costs: the crossing already happened and the
   kernel did its vma/validation work before bailing out. *)
let failed_request_ns proc =
  (Process.machine proc).Machine.cost.Cost_model.swap_setup_ns

let swap proc ~opts ~src ~dst ~pages =
  let req = { src; dst; pages } in
  let overhead = call_overhead proc in
  match request_cost proc ~opts req with
  | body ->
    let total = overhead +. body +. final_flush proc ~opts in
    trace_call proc ~name:"swapva" ~requests:[ req ] ~ns:total;
    total
  | exception Kernel_error.Fault e ->
    let spent = overhead +. failed_request_ns proc in
    trace_call proc ~name:"swapva.err" ~requests:[ req ] ~ns:spent;
    raise (Kernel_error.Fault_ns (e, spent))

let swap_result proc ~opts ~src ~dst ~pages =
  match swap proc ~opts ~src ~dst ~pages with
  | ns -> Ok ns
  | exception Kernel_error.Fault_ns (e, spent) -> Error (e, spent)

let swap_aggregated proc ~opts requests =
  match requests with
  | [] -> { ns = 0.0; completed = 0; failure = None }
  | _ ->
    let overhead = call_overhead proc in
    let body = ref 0.0 and completed = ref 0 and failure = ref None in
    (try
       List.iter
         (fun req ->
           let c = request_cost proc ~opts req in
           body := !body +. c;
           incr completed)
         requests
     with Kernel_error.Fault e ->
       (* The failing request mutated nothing, but its setup was spent. *)
       body := !body +. failed_request_ns proc;
       failure := Some e);
    (* Earlier requests in the batch did swap PTEs; their visibility flush
       is still owed even when a later request failed. *)
    let flush = if !completed > 0 then final_flush proc ~opts else 0.0 in
    let total = overhead +. !body +. flush in
    let name =
      if !failure = None then "swapva.aggregated" else "swapva.aggregated.err"
    in
    trace_call proc ~name ~requests ~ns:total;
    { ns = total; completed = !completed; failure = !failure }

let swap_separated proc ~opts requests =
  let ns = ref 0.0 and completed = ref 0 and failure = ref None in
  (try
     List.iter
       (fun { src; dst; pages } ->
         ns := !ns +. swap proc ~opts ~src ~dst ~pages;
         incr completed)
       requests
   with Kernel_error.Fault_ns (e, spent) ->
     ns := !ns +. spent;
     failure := Some e);
  { ns = !ns; completed = !completed; failure = !failure }
