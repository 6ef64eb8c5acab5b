(** Simulated physical memory: a pool of 4 KiB frames backed by real
    [Bytes], so data movement performed by the kernel (memmove) and by
    SwapVA (PTE remapping) is observable and checkable byte-for-byte. *)

type t

val create : frames:int -> t
(** A pool of [frames] frames.  Frame payloads are allocated lazily. *)

val capacity_frames : t -> int

val frames_in_use : t -> int

exception Out_of_frames

val alloc_frame : t -> int
(** Returns a free frame number (zero-filled).  @raise Out_of_frames. *)

val free_frame : t -> int -> unit
(** Returns a frame to the pool.  @raise Invalid_argument if not in use. *)

val release_frame : t -> int -> bytes option
(** Free a frame and hand its payload to the caller: [None] for a frame
    that was never materialized (logically all zeroes).  The returned
    buffer is no longer reachable through the pool — a later
    {!alloc_frame} of the same number starts from a fresh zero page — so
    the caller owns it outright.  This is the swap-out half of the
    zero-copy reclaim path.
    @raise Invalid_argument if the frame is not in use. *)

val install : t -> int -> bytes option -> unit
(** Give a freshly allocated frame an owned payload, which becomes the
    frame's backing store without a copy ([None] leaves it a lazy zero
    page).  The caller must hold no other reference it will write
    through.  This is the fault-in half of the zero-copy reclaim path.
    @raise Invalid_argument if the frame is not in use, already has
    materialized contents, or the payload is not [page_size] long. *)

val is_zeroed : t -> int -> bool
(** [frame_contents t frame = None], without allocating the option: the
    test the address space's reads and copy make before {!frame_bytes},
    so that reading never materializes a frame.
    @raise Invalid_argument if the frame is not in use. *)

val zero_frame : t -> int -> unit
(** Make a frame in use logically all zeroes again, dropping its backing
    store (if any) so it becomes a lazy zero page.  Memmove uses it for a
    whole destination page whose staged source is all zeroes.
    @raise Invalid_argument if the frame is not in use. *)

val frame_bytes : t -> int -> bytes
(** Direct view of a frame's backing store (always [page_size] long),
    materializing a lazy zero page.  Only writes need that: the address
    space reads a frame through this only after {!is_zeroed} says it is
    backed, so reading never materializes a frame.  ({!read}, {!write}
    and {!blit} below go through it.)
    @raise Invalid_argument if the frame is not in use. *)

val frame_contents : t -> int -> bytes option
(** Like {!frame_bytes} but without materializing a lazily-zeroed frame:
    [None] means "logically all zeroes".  Lets the swap device carry an
    untouched zero page without ever allocating its 4 KiB.
    @raise Invalid_argument if the frame is not in use. *)

val read : t -> frame:int -> off:int -> len:int -> bytes

val write : t -> frame:int -> off:int -> src:bytes -> src_off:int -> len:int -> unit

val blit :
  t -> src_frame:int -> src_off:int -> dst_frame:int -> dst_off:int -> len:int -> unit
(** Copy within/between frames; ranges must stay inside one page each. *)
