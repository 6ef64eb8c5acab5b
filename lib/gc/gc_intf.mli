(** A collector bound to a heap, with its cycle history. *)

open Svagc_heap

type t

val make : name:string -> Heap.t -> (unit -> Gc_stats.cycle) -> t

val name : t -> string

val heap : t -> Heap.t

val collect : t -> Gc_stats.cycle
(** Run one full cycle, record it in the history and in the machine's
    perf counters. *)

val cycles : t -> Gc_stats.cycle list
(** Oldest first.  Builds a fresh list of the whole history on every
    call; use {!cycle_count} to count. *)

val cycle_count : t -> int
(** [List.length (cycles t)] in O(1), without building the list. *)

val summary : t -> Gc_stats.summary

val reset_history : t -> unit
