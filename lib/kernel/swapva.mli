(** The SwapVA system call (Algorithm 1) with the paper's three internal
    optimizations: PMD caching, request aggregation (Fig. 5) and the
    overlapping-area path (Algorithm 2, dispatched automatically).

    Swapping really exchanges frame numbers in the leaf page tables, so
    afterwards reads through the MMU observe the exchanged contents without
    any byte having moved. *)


type opts = {
  pmd_caching : bool;
  flush : Shootdown.policy;
  allow_overlap : bool;  (** dispatch overlapping requests to Algorithm 2 *)
  leaf_swap : bool;
      (** opt-in pmd_leaf_swap mode: sub-runs covering a whole PMD-aligned
          512-page leaf on both sides are exchanged at the PMD directory
          level in O(1) simulated cost ([Cost_model.pmd_swap_ns]).  Unlike
          every other option this changes the modeled cost, so it is off in
          both presets and excluded from the per-page/flat equivalence
          guarantee. *)
}

val default_opts : opts
(** PMD caching on, [Local_pinned] flushing, overlap allowed, no leaf
    swapping — the configuration SVAGC runs with. *)

val naive_opts : opts
(** Everything off / broadcast flushing: the Fig. 8/9 baselines. *)

type request = {
  src : int;
  dst : int;
  pages : int;
}

val ranges_overlap : request -> bool

val swap_disjoint_per_page : Process.t -> pmd_caching:bool -> request -> float
(** The page-at-a-time reference body of Algorithm 1 (no syscall/flush):
    full presence precheck, then per-page getPTE / lock / exchange.  Kept
    as the executable oracle for {!swap_disjoint_flat} — property tests
    assert both produce identical heaps, perf-counter deltas and
    bit-identical cost.  Not used by {!swap}. *)

val swap_disjoint_flat :
  ?fault:Svagc_fault.Injector.t option ->
  Process.t ->
  pmd_caching:bool ->
  leaf_swap:bool ->
  request ->
  float
(** The body of Algorithm 1 used by {!swap} (no syscall/flush): observably
    identical to {!swap_disjoint_per_page} — same heap mutations, same
    counters, bit-identical simulated cost.  Ranges resolve into (leaf,
    start, len) slices once per PMD leaf, held in the machine's reusable
    scratch buffers ({!Svagc_vmem.Machine.hot_scratch}); presence is
    prechecked against per-leaf bitset words (O(1) for a fully-mapped
    leaf) before any mutation; PTE slices are exchanged with tight array
    loops; and the steady-state bulk charge is memoized on (cost, pages,
    cached) keys, replaying the exact reference float.  [leaf_swap]
    additionally exchanges whole PMD-aligned 512-page sub-runs at the
    directory level for [Cost_model.pmd_swap_ns] each — outside the
    cost-equivalence guarantee.  [fault]'s [pte] clause is consulted per
    page in address order.
    @raise Svagc_fault.Kernel_error.Fault before any mutation on a
    non-mapped page or firing clause. *)

type outcome = {
  ns : float;  (** total simulated cost, including any failed attempt *)
  completed : int;  (** requests fully applied before the first failure *)
  failure : Svagc_fault.Kernel_error.t option;
      (** the typed error that stopped the call, or [None] when every
          request was applied.  Requests after the failing one were not
          attempted; the failing one mutated nothing. *)
}
(** Result of a multi-request call.  The kernel applies requests in order
    and stops at the first error, so [completed] is always a prefix
    length. *)

val swap : Process.t -> opts:opts -> src:int -> dst:int -> pages:int -> float
(** One syscall swapping [pages] pages between [src] and [dst]; returns the
    total simulated cost in ns (syscall crossing + setup + PTE work +
    shootdown per the policy).
    @raise Svagc_fault.Kernel_error.Fault_ns on any typed kernel error —
    unaligned/unmapped ranges, overlapping ranges when [allow_overlap] is
    false, or a firing fault-injection clause — carrying the error and the
    ns the failed call still cost.  An error implies no PTE was mutated. *)

val swap_result :
  Process.t ->
  opts:opts ->
  src:int ->
  dst:int ->
  pages:int ->
  (float, Svagc_fault.Kernel_error.t * float) result
(** {!swap} with the boundary exception reified: [Ok ns] on success,
    [Error (e, spent_ns)] on a typed kernel error ([spent_ns] is the
    syscall crossing + setup the failed call still consumed — callers
    charge it to their cost accounting before retrying or degrading). *)

val swap_aggregated : Process.t -> opts:opts -> request list -> outcome
(** All requests in a single syscall: one crossing, one final shootdown
    (per-request setup is still paid).  Empty list costs nothing.  On a
    typed kernel error the call stops there and reports it in
    [failure]; already-completed requests stay applied (real batched
    syscalls are not transactional) and their visibility shootdown is
    still performed and charged. *)

val swap_separated : Process.t -> opts:opts -> request list -> outcome
(** Convenience baseline: one {!swap} call per request (Fig. 5a / Fig. 6
    "separated"), stopping at the first failing call. *)
