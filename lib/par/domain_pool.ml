(* Upper bound on [domains]; [DOMAINS] is clamped to it. *)
let max_domains = 128

(* Set on pool workers, so a [run] issued from one degrades to inline. *)
let on_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* One fan-out: a shard counter claimed with an atomic fetch-and-add.
   The [b_done] counter doubles as the synchronisation edge — workers
   bump it (SC atomic) after their plain writes, the caller reads it
   before touching any shard result, so every shard's effects are
   visible to the merge without further locking. *)
type batch = {
  b_task : int -> unit;
  b_total : int;
  b_next : int Atomic.t;
  b_done : int Atomic.t;
  b_errors : exn option array;
}

type t = {
  n_domains : int;
  mu : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable batch : batch option;
  mutable epoch : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

let domains t = t.n_domains

(* Claim shards until the batch is drained.  The last finisher
   broadcasts [done_cv] under the pool mutex so the caller's wait cannot
   miss the wakeup. *)
let drain t b =
  let rec claim () =
    let i = Atomic.fetch_and_add b.b_next 1 in
    if i < b.b_total then begin
      (try b.b_task i with e -> b.b_errors.(i) <- Some e);
      let finished = 1 + Atomic.fetch_and_add b.b_done 1 in
      if finished = b.b_total then begin
        Mutex.lock t.mu;
        Condition.broadcast t.done_cv;
        Mutex.unlock t.mu
      end;
      claim ()
    end
  in
  claim ()

let worker_loop t =
  Domain.DLS.set on_worker true;
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mu;
    while (not t.stopping) && t.epoch = !seen do
      Condition.wait t.work_cv t.mu
    done;
    if t.stopping then Mutex.unlock t.mu
    else begin
      seen := t.epoch;
      let b = t.batch in
      Mutex.unlock t.mu;
      (* The batch may already be fully drained (and cleared) by the
         time a slow worker wakes — nothing to do then. *)
      (match b with Some b -> drain t b | None -> ());
      loop ()
    end
  in
  loop ()

let create ~domains =
  if domains < 1 || domains > max_domains then
    invalid_arg "Domain_pool.create: domains out of range";
  let t =
    {
      n_domains = domains;
      mu = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      batch = None;
      epoch = 0;
      stopping = false;
      workers = [||];
    }
  in
  t.workers <-
    Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mu;
  t.stopping <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.mu;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let reraise_first b =
  let rec scan i =
    if i < b.b_total then
      match b.b_errors.(i) with Some e -> raise e | None -> scan (i + 1)
  in
  scan 0

let run_inline ~shards task =
  (* Inline execution still reports the canonical (lowest-shard)
     exception after running every shard, matching the pooled path. *)
  let errors = ref [] in
  for i = 0 to shards - 1 do
    try task i with e -> errors := (i, e) :: !errors
  done;
  match List.rev !errors with (_, e) :: _ -> raise e | [] -> ()

(* Publish a batch, drain it alongside the workers, wait for stragglers.
   Called with [t.mu] held; returns with it released. *)
let run_batch t b =
  t.batch <- Some b;
  t.epoch <- t.epoch + 1;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.mu;
  (* The caller claims shards like any worker, then blocks only for the
     stragglers. *)
  drain t b;
  Mutex.lock t.mu;
  while Atomic.get b.b_done < b.b_total do
    Condition.wait t.done_cv t.mu
  done;
  t.batch <- None;
  Mutex.unlock t.mu;
  reraise_first b

let run t ~shards task =
  if shards < 0 then invalid_arg "Domain_pool.run: negative shards";
  if shards = 0 then ()
  else if t.n_domains = 1 || shards = 1 || Domain.DLS.get on_worker then
    run_inline ~shards task
  else begin
    let b =
      {
        b_task = task;
        b_total = shards;
        b_next = Atomic.make 0;
        b_done = Atomic.make 0;
        b_errors = Array.make shards None;
      }
    in
    Mutex.lock t.mu;
    if t.stopping then begin
      Mutex.unlock t.mu;
      invalid_arg "Domain_pool.run: pool is shut down"
    end
    else if t.batch <> None then begin
      (* Re-entrant fan-out: a shard running on the caller domain issued
         another [run] while its own batch is still in flight.  Degrade
         to inline, exactly as a worker-domain caller does. *)
      Mutex.unlock t.mu;
      run_inline ~shards task
    end
    else run_batch t b
  end

let map_shards t ~shards f =
  if shards = 0 then [||]
  else begin
    let results = Array.make shards None in
    run t ~shards (fun i -> results.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) results
  end

let default_domains () =
  match Sys.getenv_opt "DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> max 1 (min n max_domains)
    | None -> 1)
  | None -> max 1 (min 4 (Domain.recommended_domain_count ()))

let global_pool : t option ref = ref None

let global () =
  match !global_pool with
  | Some p -> p
  | None ->
    let p = create ~domains:(default_domains ()) in
    global_pool := Some p;
    at_exit (fun () -> shutdown p);
    p

let with_pool ~domains f =
  let p = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)

let with_global ~domains f =
  let saved = !global_pool in
  let p = create ~domains in
  global_pool := Some p;
  Fun.protect
    ~finally:(fun () ->
      global_pool := saved;
      shutdown p)
    f
