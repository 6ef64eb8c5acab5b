open Svagc_vmem

(* No leaf cached; a shared empty array can never equal a real leaf. *)
let no_leaf : Pte.value array = [||]

type t = {
  machine : Machine.t;
  pt : Page_table.t;
  pmd_caching : bool;
  (* Two-entry cache keyed by the PMD region (vpn / 512): one slot per swap
     stream so alternating src/dst accesses both hit.  Kept as four flat
     mutable fields (region ints + leaf pointers, -1 = empty) instead of
     [(int * array) option] slots: probing and rotating are then pure
     int/pointer stores with no option or tuple allocation per page. *)
  mutable r0 : int;
  mutable l0 : Pte.value array;
  mutable r1 : int;
  mutable l1 : Pte.value array;
  mutable cost : float;
}

let create machine pt ~pmd_caching =
  { machine; pt; pmd_caching; r0 = -1; l0 = no_leaf; r1 = -1; l1 = no_leaf;
    cost = 0.0 }

let cost_ns t = t.cost

let add_cost t c = t.cost <- t.cost +. c

let pmd_region va = Addr.page_number va / Addr.pages_per_pmd

(* 0 / 1 = hit in that slot, -1 = miss.  Same probe order as the old
   option-based cache (newest slot first). *)
let cache_find t region =
  if t.r0 = region then 0 else if t.r1 = region then 1 else -1

let remember t region leaf =
  (* Simple 2-entry rotation: newest in slot 0. *)
  t.r1 <- t.r0;
  t.l1 <- t.l0;
  t.r0 <- region;
  t.l0 <- leaf

let get_pte t va =
  let cost = t.machine.Machine.cost in
  let perf = t.machine.Machine.perf in
  let region = pmd_region va in
  let slot = if t.pmd_caching then cache_find t region else -1 in
  let leaf =
    if slot >= 0 then begin
      perf.Perf.pmd_cache_hits <- perf.Perf.pmd_cache_hits + 1;
      t.cost <- t.cost +. cost.Cost_model.pt_entry_ns;
      if slot = 0 then t.l0 else t.l1
    end
    else
      match Page_table.find_leaf t.pt va with
      | None ->
        raise
          (Svagc_fault.Kernel_error.Fault
             (Svagc_fault.Kernel_error.EFAULT_unmapped { va }))
      | Some leaf ->
        perf.Perf.pt_walks <- perf.Perf.pt_walks + 1;
        t.cost <- t.cost +. Cost_model.walk_cost_ns cost;
        if t.pmd_caching then remember t region leaf;
        leaf
  in
  (leaf, Addr.pte_index va)

let cache_holds t va = t.pmd_caching && cache_find t (pmd_region va) >= 0

let charge_get_pte t va ~leaf =
  (* Identical accounting to [get_pte] — cache probe, hit/walk cost,
     counter bumps, cache rotation — with the radix descent elided because
     the caller already resolved [leaf] for the whole run. *)
  let cost = t.machine.Machine.cost in
  let perf = t.machine.Machine.perf in
  let region = pmd_region va in
  if t.pmd_caching && cache_find t region >= 0 then begin
    perf.Perf.pmd_cache_hits <- perf.Perf.pmd_cache_hits + 1;
    t.cost <- t.cost +. cost.Cost_model.pt_entry_ns
  end
  else begin
    perf.Perf.pt_walks <- perf.Perf.pt_walks + 1;
    t.cost <- t.cost +. Cost_model.walk_cost_ns cost;
    if t.pmd_caching then remember t region leaf
  end

let charge_steady_pages_from ~acc0 ~get ~lk ~pe ~pages =
  (* A float array cell keeps the accumulator unboxed through the loop
     (a float ref would box on every store).  The additions run in the
     exact per-page order of the reference loop — getPTE src, getPTE
     dst, two lock pairs, two slot reads, two slot writes — so the
     accumulated float is bit-identical to the page-at-a-time path. *)
  let acc = [| acc0 |] in
  for _ = 1 to pages do
    acc.(0) <- acc.(0) +. get +. get +. lk +. lk +. pe +. pe +. pe +. pe
  done;
  acc.(0)

let charge_steady_swap_pages t ~pages ~cached =
  (* Bulk-charge [pages] iterations of Algorithm 1's inner loop in which
     both getPTEs are steady (cache hits, or full walks when caching is
     off).  The serial 8-additions-per-page chain is the dominant host
     cost of a large swap, and it is a pure function of (acc0 bits,
     pages, cached) on a fixed cost model.  The machine's direct-mapped
     memo replays the exact float computed by the reference chain for
     that key, so hits are bit-identical by construction.  The index
     mixes the integer part of acc0 (distinct between successive charges
     of one op, since each bulk adds thousands of ns) with the encoded
     page count. *)
  let cost = t.machine.Machine.cost in
  let pe = cost.Cost_model.pt_entry_ns in
  let lk = cost.Cost_model.lock_pair_ns in
  let get = if cached then pe else Cost_model.walk_cost_ns cost in
  let acc0 = t.cost in
  let s = Machine.hot_scratch t.machine in
  let enc = (pages lsl 1) lor (if cached then 1 else 0) in
  let k = int_of_float acc0 in
  let h = (k lxor (k lsr 17)) * 0x9E3779B1 in
  let idx = (h lxor enc) land (Machine.memo_slots - 1) in
  let result =
    if
      Array.unsafe_get s.Machine.hs_memo_enc idx = enc
      && Array.unsafe_get s.Machine.hs_memo_acc idx = acc0
    then Array.unsafe_get s.Machine.hs_memo_out idx
    else begin
      let out = charge_steady_pages_from ~acc0 ~get ~lk ~pe ~pages in
      Array.unsafe_set s.Machine.hs_memo_acc idx acc0;
      Array.unsafe_set s.Machine.hs_memo_enc idx enc;
      Array.unsafe_set s.Machine.hs_memo_out idx out;
      out
    end
  in
  t.cost <- result;
  let perf = t.machine.Machine.perf in
  if cached then
    perf.Perf.pmd_cache_hits <- perf.Perf.pmd_cache_hits + (2 * pages)
  else perf.Perf.pt_walks <- perf.Perf.pt_walks + (2 * pages)

let read_slot t (leaf, idx) =
  t.cost <- t.cost +. t.machine.Machine.cost.Cost_model.pt_entry_ns;
  leaf.(idx)

let write_slot t (leaf, idx) v =
  t.cost <- t.cost +. t.machine.Machine.cost.Cost_model.pt_entry_ns;
  leaf.(idx) <- v

let charge_lock_pair t =
  t.cost <- t.cost +. t.machine.Machine.cost.Cost_model.lock_pair_ns
