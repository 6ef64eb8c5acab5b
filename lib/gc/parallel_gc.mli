(** The ParallelGC baseline: a throughput-oriented stop-the-world collector
    whose full GC runs all four LISP2 phases in parallel with byte-copy
    compaction (the cost structure the paper attributes to OpenJDK's
    ParallelGC full collections).

    "Parallel" is simulated (DESIGN.md §13): phase {e makespans} are
    work-stealing schedules over [threads] workers
    ([Svagc_par.Work_steal]), while the phases themselves execute on the
    calling host domain, so outputs never depend on [DOMAINS]. *)

open Svagc_heap

val collector : ?threads:int -> Heap.t -> Gc_intf.t
(** [threads] defaults to 4 — the paper tunes [GCThreadsCount] to 4 in the
    multi-JVM experiments. *)
