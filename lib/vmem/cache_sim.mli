(** Set-associative last-level cache model over *physical* addresses.

    Used to reproduce Table III: byte-copy compaction streams 2x the object
    bytes through the cache (polluting it), while SwapVA only touches page
    table words.  Accesses are recorded per 64-byte line. *)

type t

type stats = {
  mutable accesses : int;
  mutable misses : int;
}

val create : ?size_bytes:int -> ?line_bytes:int -> ?ways:int -> unit -> t
(** Defaults: 8 MiB, 64 B lines, 16-way.
    @raise Invalid_argument unless [line_bytes] and the set count
    ([size_bytes / line_bytes / ways]) are powers of two and [size_bytes]
    is a positive multiple of [line_bytes * ways]. *)

val access : t -> addr:int -> unit
(** Touch one physical address (one line), with exact LRU semantics: a hit
    makes the line its set's most recently used; a miss fills an invalid
    way while the set has one, else evicts the least recently used line.
    O(ways) per call; the fill itself is O(1). *)

val access_range : t -> addr:int -> len:int -> unit
(** Touch every line in [\[addr, addr+len)], one {!access} per line in
    address order, as one batched loop that updates {!stats} once per
    call.  The hits, misses and final state equal those of the per-line
    {!access} calls. *)

val stats : t -> stats

val miss_rate : t -> float
(** misses / accesses in percent; 0 when no accesses. *)

val reset_stats : t -> unit

val line_bytes : t -> int
