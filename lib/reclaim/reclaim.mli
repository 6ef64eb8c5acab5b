(** Kernel-side memory-pressure engine: per-machine active/inactive LRU
    page lists, a kswapd-style watermark reclaimer, and the swap-out /
    fault-in mechanics over {!Swap_dev}.

    This module owns the {e policy and state}; the {e wiring} lives in
    [Svagc_kernel.Fault_handler], which wraps these operations in the
    closure record [Machine.reclaim_iface] and installs it on the machine
    so that the vmem layer (which cannot depend on this library) can
    notify page lifecycle events and demand-fault swapped pages back in.

    Pages are tracked per virtual address [(asid, vpn)] — a PTE-level
    SwapVA that exchanges two {e present} entries moves frames between
    addresses without invalidating the tracking; mixed present/swapped
    exchanges are repaired by the post-GC {!adopt_space} resync.

    Costs: every swap-device transfer attempt charges the cost model's
    [swap_out_ns]/[swap_in_ns] (or the [swap_cost] override) and every
    demand fault charges [major_fault_ns] into an internal accumulator,
    drained by the caller that triggered the work ({!drain_ns}) into the
    appropriate simulated clock.  Determinism: no wall clock, no RNG of
    its own — injected device errors come from the machine's fault plane
    ([swap:p=…] clauses). *)

type t

(** A pluggable swap device as a record of closures — the same dependency
    inversion as [Machine.reclaim_iface], one level up: the tiered
    far-memory device lives in [svagc_fleet], above this library.
    [d_out_ns] is the per-attempt cost of the {e next} swap-out, queried
    before the slot is allocated (a tiered device folds in the demotion
    its next allocation will trigger, without mutating anything);
    [d_in_ns ~slot] is the per-attempt cost of reading [slot] back (far
    slots are slower).  [d_tier_stats] is [(near_in_use, far_in_use)] for
    a tiered device, [None] for a flat one.

    Payloads cross this seam by ownership, never by copy:
    - [d_write ~slot b] keeps [b] itself as the slot's payload; swap-out
      hands it the buffer {!Svagc_vmem.Phys_mem.release_frame} detached
      from the evicted frame.
    - [d_take ~slot] frees [slot] and returns its payload, which the
      caller now owns; fault-in installs it as the new frame's contents
      with {!Svagc_vmem.Phys_mem.install}.  A tiered device counts a take
      from its far tier as a promotion.
    - [d_peek ~slot] returns the payload without freeing it (oracle
      path; callers must not mutate it). *)
type dev_iface = {
  d_alloc_slot : unit -> int;
  d_free_slot : int -> unit;
  d_write : slot:int -> bytes option -> unit;
  d_take : slot:int -> bytes option;
  d_peek : slot:int -> bytes option;
  d_allocated : slot:int -> bool;
  d_slots_in_use : unit -> int;
  d_out_ns : unit -> float;
  d_in_ns : slot:int -> float;
  d_tier_stats : unit -> (int * int) option;
}

(** Per-tenant resident-page accounting, likewise inverted (the state
    lives in [svagc_fleet]).  [cg_charge]/[cg_uncharge] fire when a page
    enters/leaves the reclaim tracking table; [cg_excess] is resident
    pages above the tenant's hard limit; [cg_prefer] marks tenants over
    their soft limit (preferred kswapd victims); [cg_any_over_soft] must
    be O(1) — it is consulted on every kswapd wake; [cg_stats] lists
    [(asid, resident, soft, hard)] in ascending-asid order. *)
type cgroup_iface = {
  cg_charge : asid:int -> unit;
  cg_uncharge : asid:int -> unit;
  cg_excess : asid:int -> int;
  cg_prefer : asid:int -> bool;
  cg_any_over_soft : unit -> bool;
  cg_stats : unit -> (int * int * int * int) list;
}

val create :
  Svagc_vmem.Machine.t ->
  limit_frames:int ->
  ?swap_cost_ns:float ->
  ?max_io_retries:int ->
  ?dev:dev_iface ->
  unit ->
  t
(** A reclaimer that keeps the machine's resident frame count at or below
    [limit_frames] (evicting down to a small hysteresis gap below it on
    each wake).  [swap_cost_ns] overrides both per-page device latencies;
    [max_io_retries] (default 3) bounds device attempts per transfer.
    [dev] replaces the default flat swap device (in which case the device
    owns all transfer costs and [swap_cost_ns] is ignored).
    @raise Invalid_argument if [limit_frames <= 0]. *)

val limit_frames : t -> int

val set_cgroup : t -> cgroup_iface option -> unit
(** Install (or remove) the per-tenant accounting plane.  Pages already
    tracked are charged to their tenants on installation. *)

val enforce_hard : t -> asid:int -> unit
(** Evict the tenant's coldest pages until it is back under its hard
    limit (no-op without a cgroup plane, or when already under).  Called
    by the fleet layer after tightening a tenant's limits; the mapping,
    faulting and adopt paths run the same enforcement automatically. *)

(** {2 Page lifecycle notifications} *)

val page_mapped : t -> pt:Svagc_vmem.Page_table.t -> asid:int -> va:int -> unit
(** Track a freshly-present page (active list, referenced) and run the
    watermark check — mapping may have pushed residency over the limit. *)

val page_unmapped : t -> asid:int -> va:int -> pte:Svagc_vmem.Pte.value -> unit
(** Stop tracking [va]; a swapped [pte] releases its slot. *)

val page_touched : t -> asid:int -> va:int -> unit
(** Set the page's LRU referenced bit (no-op for untracked pages). *)

val adopt_space : t -> pt:Svagc_vmem.Page_table.t -> asid:int -> unit
(** (Re)synchronize tracking with the page table: track every present
    page not yet tracked, drop tracked pages that are no longer present.
    Used both to adopt pre-attach mappings and to repair tracking after a
    compaction whose SwapVA requests mixed present and swapped entries. *)

(** {2 Demand paging} *)

val fault_in : t -> pt:Svagc_vmem.Page_table.t -> asid:int -> va:int -> unit
(** The major-fault path: charge the fault, evict first if at the limit
    (so the incoming page cannot be chosen), pay the device read with a
    bounded retry, then take the slot's payload ([d_take], which frees
    the slot) and install it in a fresh frame without copying, and make
    the PTE present.  No-op
    when the PTE is already present (a racing fault resolved it).
    @raise Svagc_fault.Kernel_error.Fault ([EIO_swap]) when every device
    attempt fails. *)

val balance : t -> unit
(** Run the watermark check / kswapd loop explicitly (tests). *)

(** {2 Observers (oracle-safe: never mutate)} *)

val slot_bytes : t -> slot:int -> bytes option
(** The slot's payload without faulting ([None] = zero page); the device's
    own buffer, so callers must not mutate it. *)

val slot_allocated : t -> slot:int -> bool

val slots_in_use : t -> int

val tier_stats : t -> (int * int) option
(** The device's [(near_in_use, far_in_use)]; [None] for a flat device. *)

val cgroup_stats : t -> (int * int * int * int) list
(** Per-tenant [(asid, resident, soft, hard)]; [[]] without a cgroup
    plane. *)

val tracked_pages : t -> int
(** Pages currently on the LRU lists. *)

val drain_ns : t -> float
(** Return and reset the accumulated reclaim cost. *)
