open Svagc_heap
module Machine = Svagc_vmem.Machine
module Cost_model = Svagc_vmem.Cost_model

(* Each live object's refs are rewritten in [live] order, so a dead or
   dangling reference raises for the first offender in that order.  The
   cost vector is written back to front ([costs.(n - 1 - idx)]): the
   replayed work-stealing makespan depends on task order, and every
   published adjust time was produced with reversed-[live] order. *)
let run heap ~threads ~live =
  let machine = Svagc_kernel.Process.machine (Heap.proc heap) in
  let cost = machine.Machine.cost in
  let live_arr = Array.of_list live in
  let n = Array.length live_arr in
  let costs = Array.make n 0.0 in
  Array.iteri
    (fun idx obj ->
      let refs = obj.Obj_model.refs in
      Array.iteri
        (fun i addr ->
          if addr <> 0 then
            match Heap.object_at heap addr with
            | Some target ->
              if not target.Obj_model.marked then
                invalid_arg "Adjust.run: live object references a dead one";
              refs.(i) <- target.Obj_model.forward
            | None ->
              invalid_arg
                (Printf.sprintf "Adjust.run: dangling reference 0x%x" addr))
        refs;
      costs.(n - 1 - idx) <-
        cost.Cost_model.adjust_obj_ns
        +. (float_of_int (Array.length refs) *. cost.Cost_model.ref_scan_ns))
    live_arr;
  Svagc_par.Work_steal.makespan ~threads ~steal_ns:cost.Cost_model.steal_ns
    ~barrier_ns:cost.Cost_model.barrier_ns costs
