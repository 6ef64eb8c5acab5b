type stats = {
  threads : int;
  tasks : int;
  steals : int;
  total_work_ns : float;
  makespan_ns : float;
}

type 'a worker = {
  deque : 'a Deque.t;
  mutable clock : float;
  mutable live : bool;
}

let run ~threads ~steal_ns ~barrier_ns ~cost ~execute items =
  if threads <= 0 then invalid_arg "Work_steal.run: threads must be positive";
  let n = Array.length items in
  let workers =
    Array.init threads (fun _ ->
        { deque = Deque.create (); clock = 0.0; live = true })
  in
  (* Round-robin seeding keeps the initial split balanced without assuming
     anything about task order. *)
  Array.iteri (fun i item -> Deque.push workers.(i mod threads).deque item) items;
  let steals = ref 0 in
  let total = ref 0.0 in
  let remaining = ref n in
  (* Lowest-clock live worker acts next: an event-driven replay. *)
  let next_worker () =
    let best = ref None in
    Array.iteri
      (fun i w ->
        if w.live then
          match !best with
          | None -> best := Some i
          | Some j -> if w.clock < workers.(j).clock then best := Some i)
      workers;
    !best
  in
  let richest_victim () =
    let best = ref None in
    Array.iteri
      (fun i w ->
        let len = Deque.length w.deque in
        if len > 0 then
          match !best with
          | None -> best := Some i
          | Some j ->
            if len > Deque.length workers.(j).deque then best := Some i)
      workers;
    !best
  in
  let run_task w item =
    let c = cost item in
    execute item;
    w.clock <- w.clock +. c;
    total := !total +. c;
    decr remaining
  in
  let rec loop () =
    if !remaining > 0 then begin
      match next_worker () with
      | None -> ()
      | Some i ->
        let w = workers.(i) in
        (match Deque.pop_back w.deque with
        | Some item ->
          run_task w item;
          loop ()
        | None -> (
          match richest_victim () with
          | None ->
            (* Nothing anywhere: this worker is done; others may still be
               executing their final tasks. *)
            w.live <- false;
            loop ()
          | Some v -> (
            (* Steal from the head (FIFO end) of the victim's deque. *)
            match Deque.steal_front workers.(v).deque with
            | None -> assert false (* richest_victim only returns non-empty *)
            | Some stolen ->
              incr steals;
              w.clock <- w.clock +. steal_ns;
              run_task w stolen;
              loop ())))
    end
  in
  loop ();
  let makespan =
    Array.fold_left (fun acc w -> Float.max acc w.clock) 0.0 workers
  in
  {
    threads;
    tasks = n;
    steals = !steals;
    total_work_ns = !total;
    makespan_ns = (if n = 0 then 0.0 else makespan +. barrier_ns);
  }

(* The same schedule as [run], replayed over flat arrays.  Tasks are only
   seeded, never spawned, so worker [w]'s deque is always the strided
   slice of task indices [w + k * threads] for [k] in
   [\[front.(w), back.(w))]: a local pop takes [back - 1], a steal takes
   [front].  While tasks remain some deque holds them, so the acting
   worker always finds one and [run]'s retirement branch never fires.
   The same picks in the same order perform the same float additions, so
   the result equals [run]'s bit for bit (test_par and [Differential]
   check it). *)
let makespan ~threads ~steal_ns ~barrier_ns costs =
  if threads <= 0 then invalid_arg "Work_steal.makespan: threads must be positive";
  let n = Array.length costs in
  let clock = Array.make threads 0.0 in
  let front = Array.make threads 0 in
  let back = Array.init threads (fun w -> if w < n then ((n - w - 1) / threads) + 1 else 0) in
  for _ = 1 to n do
    (* Lowest-clock worker acts next, ties to the lowest index. *)
    let i = ref 0 in
    for w = 1 to threads - 1 do
      if clock.(w) < clock.(!i) then i := w
    done;
    let i = !i in
    if back.(i) > front.(i) then begin
      back.(i) <- back.(i) - 1;
      clock.(i) <- clock.(i) +. costs.(i + (back.(i) * threads))
    end
    else begin
      (* Steal from the head of the longest deque, ties to the lowest index. *)
      let v = ref 0 in
      for w = 1 to threads - 1 do
        if back.(w) - front.(w) > back.(!v) - front.(!v) then v := w
      done;
      let v = !v in
      clock.(i) <- clock.(i) +. steal_ns;
      clock.(i) <- clock.(i) +. costs.(v + (front.(v) * threads));
      front.(v) <- front.(v) + 1
    end
  done;
  if n = 0 then 0.0 else Array.fold_left Float.max 0.0 clock +. barrier_ns
