module Shootdown = Svagc_kernel.Shootdown

type t = {
  threshold_pages : int;
  pmd_caching : bool;
  aggregation : bool;
  aggregation_batch : int;
  coalesce_runs : bool;
  pmd_leaf_swap : bool;
  allow_overlap : bool;
  flush : Shootdown.policy;
  pin_compaction : bool;
  gc_threads : int;
  fault_spec : Svagc_fault.Fault_spec.t;
  fault_seed : int;
  mem_limit_frames : int option;
  swap_cost_ns : float option;
}

let default =
  {
    threshold_pages = 10;
    pmd_caching = true;
    aggregation = true;
    aggregation_batch = 64;
    coalesce_runs = true;
    pmd_leaf_swap = false;
    allow_overlap = true;
    flush = Shootdown.Local_pinned;
    pin_compaction = true;
    gc_threads = 4;
    fault_spec = Svagc_fault.Fault_spec.empty;
    fault_seed = 0;
    mem_limit_frames = None;
    swap_cost_ns = None;
  }

let unoptimized =
  {
    threshold_pages = 10;
    pmd_caching = false;
    aggregation = false;
    aggregation_batch = 1;
    coalesce_runs = false;
    pmd_leaf_swap = false;
    allow_overlap = false;
    flush = Shootdown.Broadcast_per_call;
    pin_compaction = false;
    gc_threads = 4;
    fault_spec = Svagc_fault.Fault_spec.empty;
    fault_seed = 0;
    mem_limit_frames = None;
    swap_cost_ns = None;
  }

let check t =
  let checks =
    [
      (t.threshold_pages > 0, "threshold must be positive");
      (t.aggregation_batch > 0, "batch must be positive");
      (t.gc_threads > 0, "gc_threads must be positive");
      ( Option.fold ~none:true ~some:(fun n -> n > 0) t.mem_limit_frames,
        "mem_limit_frames must be positive" );
      ( Option.fold ~none:true ~some:(fun ns -> ns >= 0.0) t.swap_cost_ns,
        "swap_cost_ns must be non-negative" );
      ( t.flush <> Shootdown.Local_pinned || t.pin_compaction,
        "Local_pinned flushing is only sound under pinned compaction \
         (Algorithm 4)" );
    ]
  in
  match List.find_opt (fun (ok, _) -> not ok) checks with
  | None -> Ok ()
  | Some (_, msg) -> Error ("Config: " ^ msg)

let validate t = match check t with Ok () -> () | Error msg -> invalid_arg msg
