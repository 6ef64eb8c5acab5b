(** A process's virtual address space over a {!Machine}.

    Provides region mapping (backed by real simulated frames), raw byte IO
    through the page tables, and a *measured* access path that also
    exercises the per-core TLB and the shared cache model (used for the
    Table III experiment).  Raw IO performs no cost accounting: callers
    charge analytic costs from {!Cost_model}. *)

type t

val create : Machine.t -> t

val created_hook : (t -> unit) option ref
(** Fired at the end of {!create}; installed by the svagc_check shadow
    oracle while check mode is enabled (see [Machine.created_hook]). *)

val machine : t -> Machine.t

val asid : t -> int

val page_table : t -> Page_table.t

val map_range : t -> va:int -> pages:int -> unit
(** Back [pages] pages starting at page-aligned [va] with fresh frames.
    @raise Invalid_argument if [va] is not aligned or a page is already
    mapped.  @raise Phys_mem.Out_of_frames when the machine is full. *)

val unmap_range : t -> va:int -> pages:int -> unit
(** Unmap and free the backing frames.  Unmapped pages are skipped. *)

val is_mapped : t -> va:int -> bool
(** True for present *and* swapped-out pages (the page is owned, even if
    its bytes currently live on the swap device). *)

val translate : t -> va:int -> (int * int) option
(** [(frame, offset)]; no TLB interaction, no demand faulting — a
    swapped-out page translates to [None]. *)

val read_bytes : t -> va:int -> len:int -> bytes
(** @raise Invalid_argument if any page in the range is unmapped.  Like
    every frame-resolving accessor, demand-faults swapped pages back in
    through the machine's reclaim plane.  Reads ({!read_bytes},
    {!read_u8}, {!read_i64}) see a lazy zero page as zeroes without
    materializing it; only writes materialize a frame. *)

val peek_bytes : t -> va:int -> len:int -> bytes
(** Non-faulting read: present pages are read in place, swapped pages are
    read from their swap slot, and logically-zero pages yield zeroes —
    without swapping anything in, materializing zero frames, or touching
    LRU state.  The oracle-side dual of {!read_bytes}.
    @raise Invalid_argument if any page in the range is unmapped. *)

val peek_i64 : t -> va:int -> int64
(** Non-faulting little-endian 64-bit read (see {!peek_bytes}). *)

val write_bytes : t -> va:int -> src:bytes -> unit

val copy : t -> src:int -> dst:int -> len:int -> unit
(** Copy [len] bytes from [src] to [dst] with C [memmove] semantics (any
    overlap), staged through the machine's scratch buffer: every source
    page is resolved and staged, then every destination page is resolved
    and written, each in address order.  That is the fault order of a
    plain read-then-write copy, so under reclaim the demand faults, LRU
    touches and evictions are the same.

    Zero pages stay zero: a source page on a lazy zero frame is flagged
    rather than staged, and is never materialized; a whole destination
    page whose bytes come only from flagged source pages becomes a lazy
    zero page ({!Phys_mem.zero_frame}), and a partial destination chunk
    of such bytes on a lazy zero frame is left alone.  Every other
    destination chunk is written: zeroes for flagged source pages, staged
    bytes for the rest.  Performs no cost accounting (see
    [Svagc_kernel.Memmove.move]); allocates nothing once the scratch has
    grown to the copy's size.
    @raise Invalid_argument if [len] is negative or a page in either range
    is unmapped. *)

val read_u8 : t -> va:int -> int

val write_u8 : t -> va:int -> int -> unit

val read_i64 : t -> va:int -> int64

val write_i64 : t -> va:int -> int64 -> unit

val fill : t -> va:int -> len:int -> char -> unit

val checksum : t -> va:int -> len:int -> int64
(** FNV-1a over the range; the GC correctness oracle.  Peek-based: never
    faults pages in or perturbs reclaim state (see {!peek_bytes}). *)

val touch : t -> core:int -> va:int -> unit
(** Measured access: TLB lookup (refill through the page table on a miss,
    demand-faulting a swapped page back in first) and one LLC line touch
    at the physical address.
    @raise Invalid_argument if unmapped. *)

val touch_range : t -> core:int -> va:int -> len:int -> unit
(** {!touch} every cache line of the range, leaving exactly the TLB, LLC
    and reclaim state a per-line {!touch} loop would, for one real TLB
    probe per page. *)

val mapped_pages : t -> int
