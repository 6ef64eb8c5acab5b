(** Four-level radix page table (PGD -> P4D -> PUD -> PMD -> PTE leaf).

    The structure mirrors Algorithm 1's walk: each [getPTE] descends four
    directory levels to reach the leaf array of PTE words.  The leaf array
    is exposed on purpose — the paper's PMD-caching optimization consists of
    holding on to that array across consecutive pages, and SwapVA swaps
    slots inside it. *)

type t

type leaf
(** A PTE leaf: the flat 512-entry array plus a presence bitset (16 x
    32-bit words; bit set iff the PTE is mapped — present or swapped)
    and its maintained popcount.  Every none<->mapped transition goes
    through {!set_pte}, which keeps the bitset exact; PTE exchanges
    (mapped-for-mapped) never change it.  {!bitset_violations} is the
    oracle for that invariant. *)

val create : unit -> t

val find_leaf : t -> int -> Pte.value array option
(** [find_leaf t va] is the PTE leaf table covering [va], if the directory
    path exists.  Performs no allocation. *)

val find_leaf_record : t -> int -> leaf option
(** Like {!find_leaf} but returning the leaf with its presence bitset. *)

val leaf_ptes : leaf -> Pte.value array

val leaf_mapped_count : leaf -> int
(** Maintained popcount of the leaf's presence bitset. *)

val leaf_first_unmapped : leaf -> lo:int -> hi:int -> int
(** First index in [\[lo, hi)] whose PTE is [Pte.none], or -1 when the
    whole window is mapped.  O(1) when the leaf is fully mapped
    (popcount precheck), otherwise a masked scan of the bitset words —
    at most 16 word loads instead of up to 512 PTE loads. *)

val ensure_leaf : t -> int -> Pte.value array
(** Like {!find_leaf} but materializes the directory path on demand. *)

val get_pte : t -> int -> Pte.value
(** [Pte.none] when unmapped. *)

val swap_pte_runs :
  Pte.value array -> start_a:int -> Pte.value array -> start_b:int -> len:int ->
  unit
(** Exchange two equal-length PTE slices element-wise (no allocation).
    The slices may live in the same leaf but must not overlap.
    @raise Invalid_argument on out-of-bounds or overlapping slices. *)

val swap_pmd_entries : t -> int -> int -> unit
(** Exchange the PMD-level directory entries (whole 512-PTE leaf tables) of
    two PMD-aligned addresses: the O(1) leaf-swap fast path.  Both slots
    must hold leaf tables.
    @raise Invalid_argument when unaligned or either slot has no leaf. *)

val set_pte : t -> int -> Pte.value -> unit
(** Creates the directory path if needed. *)

val translate : t -> int -> (int * int) option
(** [translate t va] is [Some (frame, offset)] when mapped.  A swapped
    entry does NOT translate — resolving it is the demand-paging fault
    handler's job (svagc_reclaim). *)

val mapped_pages : t -> int
(** Number of present PTEs (O(mapped), for tests and teardown). *)

val iter_mapped : t -> f:(vpn:int -> frame:int -> unit) -> unit

val iter_swapped : t -> f:(vpn:int -> slot:int -> unit) -> unit
(** Walk every swapped (non-present, slot-carrying) PTE — the read path of
    the svagc_check reclaim conservation oracle. *)

val swapped_pages : t -> int
(** Number of swapped PTEs (O(mapped)). *)

val walk_dir_levels : int
(** Directory levels traversed per [getPTE]: 4 (pgd, p4d, pud, pmd). *)

(** {2 Flat run resolution (allocation-free scratch API)}

    The flat SwapVA engine resolves a request into per-leaf slices held
    in a reusable {!run_buf}: leaf pointers in one array, (start, len)
    int-packed in another — no tuple/record/list allocation per op once
    the buffer is warm. *)

type run_buf

val run_buf_create : unit -> run_buf

val run_buf_length : run_buf -> int

val run_buf_clear : run_buf -> unit
(** Forget all slices (capacity is kept). *)

val run_buf_get : run_buf -> int -> leaf * int * int
(** [(leaf, start, len)] of slice [i] (unpacked; for tests/consumers
    outside the hot loop).  @raise Invalid_argument if out of bounds. *)

val run_buf_leaf : run_buf -> int -> leaf

val run_buf_start : run_buf -> int -> int

val run_buf_len : run_buf -> int -> int
(** Unchecked per-field slice accessors for the merge loop — reading a
    slice allocates nothing (start/len live int-packed in one word). *)

val run_buf_push : run_buf -> leaf -> start:int -> len:int -> unit
(** Append a slice (amortized allocation-free on a warm buffer).  Used
    by resolvers that must interleave slicing with per-page work (the
    fault-injected SwapVA path). *)

val resolve_leaf_slices : t -> va:int -> pages:int -> buf:run_buf -> int
(** Slice [pages] pages from [va] into per-leaf (start, len) runs — one
    directory descent per PMD leaf — overwriting [buf].  Returns -1 on
    success or the index (in pages from [va]) of the first page whose
    leaf is missing.  Presence is NOT checked: callers precheck with
    {!leaf_first_unmapped}, or per page when a fault injector must be
    consulted in address order. *)

val iter_leaf_records : t -> f:(leaf -> unit) -> unit
(** Every materialized leaf, in table order (oracle walks). *)

val bitset_violations : t -> int
(** Recompute every leaf's presence bitset from its PTE array and count
    the leaves whose stored bitset or popcount disagree — 0 under the
    documented invariant (the svagc_check law). *)
