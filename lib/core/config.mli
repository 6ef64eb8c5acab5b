(** SVAGC configuration: the swapping threshold and every optimization
    toggle the paper evaluates (Table I / §III-IV), so each one can be
    ablated independently. *)

type t = {
  threshold_pages : int;
      (** Algorithm 3 [Threshold_Swapping]; 10 pages is the paper's
          break-even (Fig. 10) *)
  pmd_caching : bool;  (** Fig. 7/8 *)
  aggregation : bool;  (** Fig. 5/6 *)
  aggregation_batch : int;  (** max requests folded into one syscall *)
  coalesce_runs : bool;
      (** request-level aggregation: adjacent compaction entries whose src
          AND dst ranges are contiguous merge into one larger SwapVA
          request before call-level batching, saving one per-request setup
          fee and keeping the kernel's PMD cache warm across the seam *)
  pmd_leaf_swap : bool;
      (** opt-in leaf-swap mode: whole PMD-aligned 512-page sub-runs are
          exchanged at the PMD directory level in O(1) simulated cost
          ([Cost_model.pmd_swap_ns]); changes the cost model, so it is off
          by default and evaluated in its own ablation *)
  allow_overlap : bool;  (** Algorithm 2 for overlapping src/dst *)
  flush : Svagc_kernel.Shootdown.policy;
  pin_compaction : bool;  (** Algorithm 4 *)
  gc_threads : int;
  fault_spec : Svagc_fault.Fault_spec.t;
      (** Deterministic kernel fault injection ([--fault-spec]).  Empty
          (the default) leaves every simulated output bit-identical to a
          build without the fault plane; non-empty specs exercise the
          typed error paths and the GC's SwapVA→memmove degradation. *)
  fault_seed : int;
      (** Seed for the injector's per-clause PRNG streams
          ([--fault-seed]); same spec + same seed ⇒ byte-identical runs. *)
  mem_limit_frames : int option;
      (** Simulated memory pressure ([--mem-limit-frames]): cap the
          machine's resident frames, evicting cold pages to the simulated
          swap device via the svagc_reclaim kswapd.  [None] (the default)
          means unlimited physical memory and is bit-identical to a build
          without the reclaim subsystem.  Armed by the mover prologue,
          like the fault plane. *)
  swap_cost_ns : float option;
      (** Override both per-page swap-device latencies ([--swap-cost]);
          [None] uses the cost model's [swap_out_ns]/[swap_in_ns]. *)
}

val default : t
(** All optimizations on: threshold 10, PMD caching, aggregation (batch
    64), overlap swapping, pinned compaction with local flushes, 4 GC
    threads. *)

val unoptimized : t
(** SwapVA with no internal optimizations and naive per-call broadcast
    shootdowns — the Fig. 8/9 baseline. *)

val check : t -> (unit, string) Stdlib.result
(** [Ok ()] for a runnable config, otherwise [Error] with a one-line
    reason naming the first offending setting (e.g. a non-positive
    [mem_limit_frames], or [Local_pinned] flushing without
    [pin_compaction]).  Front ends call it before printing anything. *)

val validate : t -> unit
(** {!check}, raising: what the collector constructors call.
    @raise Invalid_argument with {!check}'s message. *)
