open Svagc_vmem

type t = {
  machine : Machine.t;
  jvms : Jvm.t array;
}

let create ?mem_limit_frames ?swap_cost_ns ?swap_dev ?cgroup machine ~instances
    ~spawn =
  if instances <= 0 then invalid_arg "Multi_jvm.create: need at least one instance";
  (* Overcommit mode: one shared frame pool for every tenant.  Attach
     BEFORE spawning so each JVM's heap pages enter the LRU lists as they
     are mapped — the contention between tenants for residency is the
     whole point of the experiment. *)
  (match mem_limit_frames with
  | Some limit_frames ->
    if not (Svagc_kernel.Fault_handler.attached machine) then
      ignore
        (Svagc_kernel.Fault_handler.attach machine ~limit_frames ?swap_cost_ns
           ?dev:swap_dev ?cgroup ())
  | None -> ());
  let jvms = Array.init instances (fun index -> spawn ~index machine) in
  (* One trace track per co-running instance (Fig. 2 / Fig. 14 views). *)
  Array.iteri (fun index jvm -> Jvm.set_trace_pid jvm index) jvms;
  machine.Machine.copy_streams <- instances;
  { machine; jvms }

let jvms t = t.jvms

(* Lockstep: every instance takes step [s], in index order, before any
   takes [s + 1].  The [sched_*] counters count n queued steps up front,
   one dispatch per call and one re-queue per call that has a next step:
   perfbench's digests pin those values, mid-run snapshots included. *)
let run_round_robin_indexed t ~steps ~step =
  if steps > 0 then begin
    let perf = t.machine.Machine.perf in
    perf.Perf.sched_scheduled <- perf.Perf.sched_scheduled + Array.length t.jvms;
    for s = 0 to steps - 1 do
      Array.iteri
        (fun i jvm ->
          perf.Perf.sched_dispatched <- perf.Perf.sched_dispatched + 1;
          step ~index:i jvm s;
          if s + 1 < steps then
            perf.Perf.sched_scheduled <- perf.Perf.sched_scheduled + 1)
        t.jvms
    done
  end

let max_total_ns t =
  Array.fold_left (fun acc jvm -> Float.max acc (Jvm.total_ns jvm)) 0.0 t.jvms

let avg_over t f =
  let sum = Array.fold_left (fun acc jvm -> acc +. f jvm) 0.0 t.jvms in
  sum /. float_of_int (Array.length t.jvms)

let avg_gc_ns t = avg_over t Jvm.gc_ns

let avg_app_ns t = avg_over t Jvm.app_ns

let release t = t.machine.Machine.copy_streams <- 1
