(** Per-core translation lookaside buffer: set-associative, LRU, tagged by
    address-space id so flushes can target one process (the paper's
    process-scoped shootdown) or a single page. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes_full : int;
  mutable flushes_asid : int;
  mutable flushes_page : int;
}

val create : ?entries:int -> ?ways:int -> unit -> t
(** Defaults: 64 entries, 4-way (a typical L1 DTLB).
    @raise Invalid_argument unless [ways] is positive and [entries] is a
    positive multiple of it. *)

val lookup : t -> asid:int -> vpn:int -> int
(** The cached frame on a hit, [-1] on a miss; updates recency and
    hit/miss counters.  Allocation-free.
    @raise Invalid_argument on a negative [asid]. *)

val repeat_hits : t -> asid:int -> vpn:int -> n:int -> unit
(** Exactly the state [n] further {!lookup}s of a resident [(asid, vpn)]
    leave behind, all hits: [n] ticks, [n] hits, and the entry's recency
    set to the last of them.  Lets a caller that touches [n + 1] lines of
    one page in a row pay for one real probe.  No-op when [n <= 0].
    @raise Invalid_argument if [n > 0] and the page is not resident. *)

val insert : t -> asid:int -> vpn:int -> frame:int -> unit
(** Fill after a page walk: the set's first invalid way, else its least
    recently used one.  Callers insert only after a {!lookup} miss for the
    same [(asid, vpn)], so a pair is never resident twice — {!lookup}
    relies on that to stop at the first match.
    @raise Invalid_argument on a negative [asid]. *)

val flush_all : t -> unit

val flush_asid : t -> asid:int -> unit

val flush_page : t -> asid:int -> vpn:int -> unit

val iter_valid : t -> (asid:int -> vpn:int -> frame:int -> unit) -> unit
(** Walk every valid entry in set-major, way order without touching
    recency, hit/miss stats or the entry order — the read path of the
    svagc_check TLB coherence oracle. *)

val stats : t -> stats

val reset_stats : t -> unit

val entries : t -> int

val occupied : t -> int
