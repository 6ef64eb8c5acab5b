(** Machine-wide event counters (the simulator's `perf`).

    Counters are plain mutable ints; experiments snapshot/reset around the
    region of interest. *)

type t = {
  mutable syscalls : int;
  mutable swapva_calls : int;
  mutable memmove_calls : int;
  mutable ptes_swapped : int;
  mutable pt_walks : int;  (** full 4-level getPTE walks *)
  mutable pmd_cache_hits : int;
  mutable leaf_runs : int;
      (** (leaf, start, len) slices processed by the flat SwapVA
          engine: one per PMD-leaf crossing per stream, the unit the batched
          fast path walks at *)
  mutable runs_coalesced : int;
      (** compaction move entries merged into a preceding contiguous
          SwapVA request (request-level aggregation) *)
  mutable pmd_leaf_swaps : int;
      (** whole 512-page leaf pairs exchanged at the PMD level by the
          opt-in [pmd_leaf_swap] mode *)
  mutable bytes_copied : int;  (** physically moved by memmove *)
  mutable bytes_remapped : int;  (** logically moved by SwapVA *)
  mutable tlb_flush_local : int;
  mutable tlb_flush_page : int;
  mutable tlb_flush_all : int;
      (** machine-wide [flush_tlb_all_cores] shootdowns; each one also
          counts [ncores] events in [tlb_flush_local] (one per core
          actually flushed) *)
  mutable ipis_sent : int;
  mutable ipis_lost : int;
      (** shootdown IPIs dropped by the fault-injection plane; each lost
          IPI is detected via its missing ack and resent (also counted in
          [ipis_sent]) *)
  mutable shootdown_broadcasts : int;
  mutable pins : int;
  mutable gc_cycles : int;
  mutable swap_retries : int;
      (** SwapVA requests re-issued after a transient [EAGAIN] fault *)
  mutable swap_fallbacks : int;
      (** SwapVA requests the GC abandoned and completed via memmove after
          a degradable kernel error (see [Kernel_error.is_degradable]) *)
  mutable alloc_waste_bytes : int;  (** page-alignment fragmentation *)
  mutable alloc_bytes : int;
  mutable pages_swapped_out : int;
      (** pages evicted to the swap device by kswapd-style reclaim *)
  mutable pages_swapped_in : int;
      (** pages read back on a demand fault; always [<= pages_swapped_out] *)
  mutable major_faults : int;
      (** demand faults that hit a swapped PTE and had to touch the swap
          device (counted on fault entry, before the device IO) *)
  mutable reclaim_scans : int;
      (** LRU pages examined by kswapd (active-list aging + inactive-list
          eviction candidates) *)
  mutable kswapd_wakes : int;
      (** watermark-triggered reclaim activations *)
  mutable swap_io_errors : int;
      (** injected swap-device EIOs observed (one per failed device
          attempt, both directions); see the [swap] fault site *)
  mutable tier_demotions : int;
      (** cold swap slots moved from the near tier to the far tier by a
          tiered device's placement policy; at most one per slot lifetime *)
  mutable tier_promotions : int;
      (** demand faults served from the far tier (the slot's payload came
          back over the slow path); always [<= pages_swapped_in] *)
  mutable admission_rejects : int;
      (** tenants refused outright by fleet admission control (neither
          admitted nor queued) *)
  mutable sched_scheduled : int;
      (** events inserted into an event calendar ({!Svagc_sched.Calendar}) *)
  mutable sched_dispatched : int;
      (** calendar events actually delivered to their process; always
          [<= sched_scheduled - sched_cancelled] *)
  mutable sched_cancelled : int;
      (** calendar events removed before firing (lazy deletion) *)
}

val create : unit -> t

val reset : t -> unit

val copy : t -> t
(** Snapshot. *)

val diff : after:t -> before:t -> t
(** Per-field subtraction. *)

val add : into:t -> t -> unit
(** [add ~into delta] accumulates every counter of [delta] into [into],
    e.g. per-run deltas into a benchmark-wide total.  Integer addition
    commutes, so the merge order does not matter. *)

val to_assoc : t -> (string * int) list
(** Every counter as [(name, value)], in declaration order.  This is the
    counter source the trace recorder snapshots around spans. *)

val pp : Format.formatter -> t -> unit
