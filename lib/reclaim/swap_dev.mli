(** The simulated swap device: a growable array of page-sized slots.

    Slots hold their payload as [bytes option] — [None] is a logically
    zero page, mirroring [Phys_mem]'s lazy frames, so an untouched page
    can round-trip through swap without its 4 KiB ever being allocated.
    The device itself is free of timing and failure policy: latencies are
    charged and injected EIOs decided by {!Reclaim}, which also owns slot
    lifetime (a slot is allocated on swap-out and freed on swap-in or
    when its owning page is unmapped).  Payloads move in and out by
    ownership ({!write}, {!take}); nothing on the device copies bytes. *)

type t

val create : unit -> t
(** An empty device; capacity grows on demand. *)

val alloc_slot : t -> int
(** Claim a free slot (lowest-numbered first, so slot numbers are
    deterministic and traces read well). *)

val free_slot : t -> int -> unit
(** @raise Invalid_argument if the slot is not allocated. *)

val write : t -> slot:int -> bytes option -> unit
(** Store a page payload; [None] records a zero page.  The payload
    {e moves} into the device: it keeps the very buffer it is handed, so
    the caller gives up every reference it would write through (swap-out
    hands over a buffer {!Svagc_vmem.Phys_mem.release_frame} has just
    detached from its frame).
    @raise Invalid_argument if the slot is not allocated. *)

val take : t -> slot:int -> bytes option
(** Free the slot and move its payload out to the caller ([None] = zero
    page), without a copy: the device keeps no reference, so the caller
    owns the buffer (fault-in installs it as the new frame's contents).
    @raise Invalid_argument if the slot is not allocated. *)

val peek : t -> slot:int -> bytes option
(** The stored payload without freeing the slot; the device's own
    buffer (callers must not mutate it) — the oracle/checksum path,
    guaranteed allocation-free.
    @raise Invalid_argument if the slot is not allocated. *)

val allocated : t -> slot:int -> bool

val slots_in_use : t -> int
