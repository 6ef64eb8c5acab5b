(** The differential harness: random swap schedules replayed through every
    SwapVA engine, asserting the equivalences the kernel promises.

    Three engine paths are compared on identical fresh machines:

    - [Per_page] — [Swapva.swap_disjoint_per_page], the executable
      reference;
    - [Flat] — [Swapva.swap_disjoint_flat], the engine behind the
      syscall (bitset prechecks, scratch run buffers, memoized bulk
      charges), which must produce a bit-identical heap layout,
      perf-counter deltas (modulo its own [leaf_runs] bookkeeping
      counter) and bit-identical simulated cost;
    - [Leaf] — [swap_disjoint_flat ~leaf_swap:true], the O(1) PMD mode,
      which must produce the identical layout at no greater cost than
      [Flat] (its counters legitimately differ — it is outside the
      cost-equivalence guarantee).

    Each case is additionally pushed through the full syscall boundary
    ([swap_separated] with broadcast flushing and [swap_aggregated] with
    the SVAGC defaults) twice — once with no fault injector and once with
    an all-zero-rate injector — asserting the two runs are bit-identical
    in cost, counters and layout (the fault plane's rate-0 guarantee). *)

type case = {
  seed : int;
  arena_pages : int;
  requests : Svagc_kernel.Swapva.request list;
      (** each request's src/dst ranges are disjoint (the engines'
          precondition); different requests may overlap freely *)
}

val arena_base : int
(** PMD-aligned VA where every case's arena is mapped. *)

val gen_case : ?arena_pages:int -> ?max_requests:int -> seed:int -> unit -> case
(** Deterministic schedule from [seed]: a mix of small runs, medium runs
    and (when the arena allows) whole PMD-aligned 512-page runs that light
    up the leaf-swap path. *)

type path = Per_page | Flat | Leaf

type replay = {
  cost : float;
  counters : (string * int) list;  (** [Perf.to_assoc] with [leaf_runs] zeroed *)
  layout : (int * int) list;  (** sorted [(vpn, frame)] of the final mapping *)
}

val replay : path -> case -> replay
(** Apply the case's requests in order through one engine on a fresh
    machine. *)

val compare_case : case -> int * Check.finding list
(** Engine equivalences for one case (see the module header). *)

val zero_fault_identity : case -> int * Check.finding list
(** Full-syscall replays with no injector vs. an all-zero-rate injector
    must be bit-identical. *)

type sched_case = {
  sc_seed : int;
  sc_firsts : float array;  (** entry ns per proc (small ints: many ties) *)
  sc_plans : int array array;  (** per-proc stride sequence; 0 keeps ties *)
}

val gen_sched_case :
  ?max_procs:int -> ?max_events:int -> seed:int -> unit -> sched_case
(** Deterministic random schedule: strides and entry times drawn up front
    so both replays consume the identical plan; small integer ns with
    zero strides allowed make same-instant FIFO ties common. *)

val sched_identity : sched_case -> int * Check.finding list
(** Replay the schedule through [Svagc_sched.Engine.run_lockstep_scan] and
    [run_calendar]; the (proc, ns) firing sequences must be bit-identical
    (the calendar's FIFO tie-break contract). *)

val par_identity : ?domains:int -> seed:int -> unit -> int * Check.finding list
(** The host-parallelism oracle (DESIGN.md §13): replay one deterministic
    workload — two traced LISP2 GC cycles over a seeded object soup
    followed by a sharded {!Svagc_par.Par_sweep} — once under a 1-domain
    global pool and once under a [domains]-domain pool
    ([Svagc_par.Domain_pool.with_global]), and assert the two runs are
    {e bit-identical} in every observable: per-cycle clocks (float bits),
    cycle accounting, the full perf-counter vector, the final heap
    layout, the canonical Chrome trace (byte for byte, per-span counter
    deltas included), and the sweep's per-shard stats, costs and
    checksums.  Each replay also passes {!Check.domain_safety} and checks
    the sweep checksum against {!Svagc_par.Par_sweep.checksum_reference}.
    [domains] defaults to 4. *)

val run_suite : ?cases:int -> ?seed:int -> unit -> int * Check.finding list
(** [cases] generated schedules (default 40) through {!compare_case},
    {!zero_fault_identity} and {!sched_identity}, plus a handful of
    {!par_identity} replays; returns the combined (items, findings). *)
