(* Shared fixtures for the GC-level test suites: random-but-deterministic
   heap populations with a mix of small and swappable objects, links and a
   partial root set. *)

open Svagc_vmem
open Svagc_heap
module Process = Svagc_kernel.Process
module Rng = Svagc_util.Rng

let machine ?(ncores = 4) ?(phys_mib = 128) () =
  Machine.create ~ncores ~phys_mib Cost_model.xeon_6130

let heap ?(size_mib = 24) ?(threshold_pages = 10) ?machine:m () =
  let m = match m with Some m -> m | None -> machine () in
  let proc = Process.create m in
  Heap.create proc ~threshold_pages ~size_bytes:(size_mib * 1024 * 1024) ()

type population = {
  heap : Heap.t;
  rooted : Obj_model.t list;  (** objects expected to survive *)
  dropped : Obj_model.t list;  (** garbage *)
}

(* Allocate [n] objects; ~40% large (page-aligned, swappable), 60% small;
   even-indexed objects become roots, odd ones are garbage; each rooted
   object links to the previous rooted one. *)
let populate ?(n = 120) ?(seed = 42) heap =
  let rng = Rng.create ~seed in
  let rooted = ref [] and dropped = ref [] in
  let prev_root = ref None in
  for i = 0 to n - 1 do
    let size =
      if Rng.int rng 10 < 4 then (40 * 1024) + Rng.int rng (64 * 1024)
      else 64 + Rng.int rng 2048
    in
    let obj = Heap.alloc heap ~size ~n_refs:2 ~cls:(i mod 3) in
    (* Distinct payload so checksums discriminate objects. *)
    Heap.write_payload heap obj ~off:0
      (Bytes.make (min 64 (size - Obj_model.header_bytes)) (Char.chr (i mod 256)));
    if i mod 2 = 0 then begin
      Heap.add_root heap obj;
      (match !prev_root with
      | Some p -> Heap.set_ref heap obj ~slot:0 (Some p)
      | None -> ());
      prev_root := Some obj;
      rooted := obj :: !rooted
    end
    else dropped := obj :: !dropped
  done;
  { heap; rooted = List.rev !rooted; dropped = List.rev !dropped }

let checksums heap objs = List.map (fun o -> (o, Heap.checksum_object heap o)) objs

let assert_checksums heap tagged =
  List.iter
    (fun (o, c) ->
      if Heap.checksum_object heap o <> c then
        Alcotest.failf "object %d: payload corrupted by the GC" o.Obj_model.id;
      if not (Heap.header_matches heap o) then
        Alcotest.failf "object %d: header mismatch after move" o.Obj_model.id)
    tagged

(* A reachability-correct view: every rooted object and everything it
   links to must be live after a collection. *)
let assert_live_set heap rooted =
  List.iter
    (fun o ->
      match Heap.object_at heap o.Obj_model.addr with
      | Some found when found == o -> ()
      | Some _ | None ->
        Alcotest.failf "rooted object %d lost by the GC" o.Obj_model.id)
    rooted

(* The zero-copy reclaim plane's ownership contract, as one scenario:
   page A is written and evicted; the frame it gave up is reallocated to
   a fresh page B, which is written; and A is faulted back in.  Swap-out
   hands A's buffer to the device and fault-in hands it back, so a pool
   that kept (or re-served) the buffer would show B's bytes through A.
   [dev_of] builds a custom swap device on the scenario's machine.
   Returns the machine and what A and B then read. *)
let reclaim_alias_scenario ?dev_of () =
  let m = machine () in
  let dev = Option.map (fun f -> f m) dev_of in
  ignore (Svagc_kernel.Fault_handler.attach m ~limit_frames:4 ?dev ());
  let aspace = Process.aspace (Process.create m) in
  let pt = Address_space.page_table aspace in
  let page i = (1 lsl 32) + (i * Addr.page_size) in
  let map i = Address_space.map_range aspace ~va:(page i) ~pages:1 in
  map 0;
  Address_space.write_bytes aspace ~va:(page 0)
    ~src:(Bytes.make Addr.page_size 'a');
  let frame_a = Pte.frame_exn (Page_table.get_pte pt (page 0)) in
  let rec find_b i =
    if i > 16 then Alcotest.fail "A's frame was never handed to a new page";
    map i;
    let pte = Page_table.get_pte pt (page i) in
    if
      Pte.is_swapped (Page_table.get_pte pt (page 0))
      && Pte.is_present pte
      && Pte.frame_exn pte = frame_a
    then i
    else find_b (i + 1)
  in
  let b = find_b 1 in
  Address_space.write_bytes aspace ~va:(page b)
    ~src:(Bytes.make Addr.page_size 'b');
  let read i = Address_space.read_bytes aspace ~va:(page i) ~len:Addr.page_size in
  let a_bytes = read 0 in
  (m, a_bytes, read b)
