open Svagc_vmem

type t = {
  pid : int;
  name : string;
  aspace : Address_space.t;
  machine : Machine.t;
  mutable current_core : int;
  mutable pinned : bool;
}

(* Atomic: experiment runs create processes on several domains at once,
   and pids must stay unique across machines (Chrome trace tracks). *)
let next_pid = Atomic.make 101

let create ?name machine =
  let pid = Atomic.fetch_and_add next_pid 1 in
  let name = match name with Some n -> n | None -> Printf.sprintf "proc-%d" pid in
  {
    pid;
    name;
    aspace = Address_space.create machine;
    machine;
    current_core = 0;
    pinned = false;
  }

let pid t = t.pid
let name t = t.name
let aspace t = t.aspace
let machine t = t.machine
let current_core t = t.current_core

let set_current_core t core =
  if core < 0 || core >= t.machine.Machine.ncores then
    invalid_arg "Process.set_current_core: no such core";
  if t.pinned then invalid_arg "Process.set_current_core: process is pinned";
  t.current_core <- core

let is_pinned t = t.pinned

let pin t ~core =
  if core < 0 || core >= t.machine.Machine.ncores then
    invalid_arg "Process.pin: no such core";
  t.current_core <- core;
  t.pinned <- true;
  t.machine.Machine.perf.Perf.pins <- t.machine.Machine.perf.Perf.pins + 1;
  t.machine.Machine.cost.Cost_model.pin_ns

let unpin t =
  t.pinned <- false;
  t.machine.Machine.cost.Cost_model.pin_ns
