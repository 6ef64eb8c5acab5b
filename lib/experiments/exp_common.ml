open Svagc_vmem
module Runner = Svagc_workloads.Runner
module Workload = Svagc_workloads.Workload

type collector_kind =
  | Svagc
  | Lisp2_memmove
  | Parallelgc
  | Shenandoah

let collector_name = function
  | Svagc -> "SVAGC"
  | Lisp2_memmove -> "-SwapVA"
  | Parallelgc -> "ParallelGC"
  | Shenandoah -> "Shenandoah"

let collector_of ?(config = Svagc_core.Config.default) kind heap =
  match kind with
  | Svagc -> Svagc_core.Svagc.collector ~config heap
  | Lisp2_memmove -> Svagc_core.Svagc.baseline_collector ~threads:4 heap
  | Parallelgc -> Svagc_gc.Parallel_gc.collector ~threads:4 heap
  | Shenandoah -> Svagc_gc.Shenandoah.collector ~threads:4 heap

let fresh_machine ?ncores ?(phys_mib = 1024) cost =
  Machine.create ?ncores ~phys_mib cost

let suite ~quick =
  if quick then
    [
      Svagc_workloads.Sparse.quarter;
      Svagc_workloads.Sparse.large;
      Svagc_workloads.Fft.large;
      Svagc_workloads.Sigverify.default;
      Svagc_workloads.Crypto_aes.workload;
    ]
  else Svagc_workloads.Spec.suite

(* The shadow oracle's hooks and the tracer are process-global, so under
   [--check] or tracing every run stays on the calling domain, in order. *)
let runs thunks =
  if Option.is_some !Machine.created_hook || Svagc_trace.Tracer.tracing ()
  then List.map (fun f -> f ()) thunks
  else
    Svagc_par.Domain_pool.map (Svagc_par.Domain_pool.global ())
      (fun f -> f ()) thunks

type key = string * collector_kind * int * bool

let cache : (key, Runner.result) Hashtbl.t = Hashtbl.create 64

let key_of ~quick kind ~heap_factor workload =
  (workload.Workload.name, kind, int_of_float (heap_factor *. 100.0), quick)

let compute ~quick kind ~heap_factor workload () =
  let machine = fresh_machine Cost_model.xeon_6130 in
  let steps = if quick then 40 else 60 in
  let min_gcs = if quick then 3 else 5 in
  Runner.run ~heap_factor ~steps ~min_gcs ~machine
    ~collector_of:(collector_of kind) workload

let suite_run ~quick kind ~heap_factor workload =
  let key = key_of ~quick kind ~heap_factor workload in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
    let r = compute ~quick kind ~heap_factor workload () in
    Hashtbl.replace cache key r;
    r

let prefill ~quick grid =
  let missing =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun (kind, heap_factor) ->
            let key = key_of ~quick kind ~heap_factor w in
            if Hashtbl.mem cache key then None
            else Some (key, compute ~quick kind ~heap_factor w))
          grid)
      (suite ~quick)
  in
  List.iter2
    (fun (key, _) r -> Hashtbl.replace cache key r)
    missing
    (runs (List.map snd missing))

let geomean_ratio pairs ~metric =
  Svagc_util.Num_util.geomean
    (List.map
       (fun (baseline, subject) ->
         let b = metric baseline and s = metric subject in
         if s <= 0.0 then 1.0 else b /. s)
       pairs)
