open Svagc_heap
module Vec = Svagc_util.Vec
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model

let run heap ~threads =
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let cost = machine.Machine.cost in
  Vec.iter (fun o -> o.Obj_model.marked <- false) (Heap.objects heap);
  let costs = Vec.create () in
  let stack = Vec.create () in
  Heap.iter_roots heap (fun o -> Vec.push stack o);
  let visit o =
    if not o.Obj_model.marked then begin
      o.Obj_model.marked <- true;
      let refs = o.Obj_model.refs in
      Vec.push costs
        (cost.Cost_model.mark_obj_ns
        +. (float_of_int (Array.length refs) *. cost.Cost_model.ref_scan_ns));
      Array.iter
        (fun addr ->
          if addr <> 0 then
            match Heap.object_at heap addr with
            | Some target -> if not target.Obj_model.marked then Vec.push stack target
            | None ->
              invalid_arg
                (Printf.sprintf "Mark.run: dangling reference 0x%x (GC bug)" addr))
        refs
    end
  in
  let rec drain () =
    match Vec.pop stack with
    | None -> ()
    | Some o ->
      visit o;
      drain ()
  in
  drain ();
  Svagc_par.Work_steal.makespan ~threads ~steal_ns:cost.Cost_model.steal_ns
    ~barrier_ns:cost.Cost_model.barrier_ns (Vec.to_array costs)

let live_objects heap =
  Vec.fold_left
    (fun acc o -> if o.Obj_model.marked then o :: acc else acc)
    [] (Heap.objects heap)
