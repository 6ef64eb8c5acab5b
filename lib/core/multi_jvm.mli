(** Co-running JVM instances on one machine (Figs. 2 and 14).

    All instances share the machine's copy bandwidth: while [k] instances
    run, every byte-copy (GC compaction or application traffic) sees
    [machine_copy_bw / k].  SwapVA compaction needs almost no bandwidth, so
    SVAGC degrades far more slowly than byte-copy collectors — that
    divergence is the paper's scalability result. *)

open Svagc_vmem

type t

val create :
  ?mem_limit_frames:int ->
  ?swap_cost_ns:float ->
  ?swap_dev:Svagc_reclaim.Reclaim.dev_iface ->
  ?cgroup:Svagc_reclaim.Reclaim.cgroup_iface ->
  Machine.t ->
  instances:int ->
  spawn:(index:int -> Machine.t -> Jvm.t) ->
  t
(** Spawns [instances] JVMs and sets the machine's contention level.
    [mem_limit_frames] turns on overcommit: every tenant contends for one
    shared resident-frame pool (the reclaim plane is attached to the
    machine before any JVM is spawned), with [swap_cost_ns] optionally
    overriding both swap-device latencies, [swap_dev] substituting a
    custom (e.g. tiered) device and [cgroup] installing per-tenant
    resident accounting — both forwarded to
    [Svagc_kernel.Fault_handler.attach] and ignored when a reclaimer is
    already attached. *)

val jvms : t -> Jvm.t array

val run_round_robin_indexed :
  t -> steps:int -> step:(index:int -> Jvm.t -> int -> unit) -> unit
(** Interleave [steps] iterations across the instances in lockstep: every
    instance takes step [s] ([step ~index jvm s], in index order) before
    any takes [s + 1].  Bumps the machine's [sched_scheduled] by the
    instance count before the first step, [sched_dispatched] before each
    call and [sched_scheduled] after each call that has a next step, so
    both read [instances * steps] at the end. *)

val max_total_ns : t -> float
(** Wall-clock of the co-run: the slowest instance. *)

val avg_gc_ns : t -> float

val avg_app_ns : t -> float

val release : t -> unit
(** Reset the machine's contention level to 1. *)
