(* Test-only executable references for the LLC and TLB models: the
   straightforward array-of-arrays implementations the flat
   [Svagc_vmem.Cache_sim] and [Svagc_vmem.Tlb] must agree with call for
   call.  Every access scans every way, with no early exit, keeps an
   explicit recency stamp per way and picks its victim in a separate pass,
   so nothing here relies on the invariants the flat models exploit (tags
   unique per set and the LLC's recency-ring order; an [(asid, vpn)] pair
   resident at most once in the TLB).  Kept deliberately unoptimized. *)

module Cache = struct
  type t = {
    tags : int array array; (* -1 = invalid *)
    stamps : int array array;
    n_sets : int;
    line_shift : int;
    mutable tick : int;
    mutable accesses : int;
    mutable misses : int;
  }

  let log2 n =
    let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
    go 0 n

  let create ~size_bytes ~line_bytes ~ways =
    let n_sets = size_bytes / line_bytes / ways in
    {
      tags = Array.init n_sets (fun _ -> Array.make ways (-1));
      stamps = Array.init n_sets (fun _ -> Array.make ways 0);
      n_sets;
      line_shift = log2 line_bytes;
      tick = 0;
      accesses = 0;
      misses = 0;
    }

  (* Returns whether the access hit. *)
  let access t ~addr =
    t.tick <- t.tick + 1;
    t.accesses <- t.accesses + 1;
    let line_no = addr lsr t.line_shift in
    let set = line_no mod t.n_sets in
    let tag = line_no / t.n_sets in
    let tags = t.tags.(set) and stamps = t.stamps.(set) in
    let ways = Array.length tags in
    let hit = ref false in
    for w = 0 to ways - 1 do
      if tags.(w) = tag then begin
        hit := true;
        stamps.(w) <- t.tick
      end
    done;
    if not !hit then begin
      t.misses <- t.misses + 1;
      (* Fill, evicting LRU (or the first invalid way). *)
      let victim = ref 0 in
      for w = 1 to ways - 1 do
        if tags.(w) = -1 && tags.(!victim) <> -1 then victim := w
        else if tags.(!victim) <> -1 && stamps.(w) < stamps.(!victim) then
          victim := w
      done;
      tags.(!victim) <- tag;
      stamps.(!victim) <- t.tick
    end;
    !hit
end

module Tlb = struct
  type entry = {
    mutable valid : bool;
    mutable asid : int;
    mutable vpn : int;
    mutable frame : int;
    mutable stamp : int;
  }

  type t = {
    sets : entry array array;
    n_sets : int;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable flushes_full : int;
    mutable flushes_asid : int;
    mutable flushes_page : int;
  }

  let create ~entries ~ways =
    let n_sets = entries / ways in
    let fresh () = { valid = false; asid = 0; vpn = 0; frame = 0; stamp = 0 } in
    {
      sets = Array.init n_sets (fun _ -> Array.init ways (fun _ -> fresh ()));
      n_sets;
      tick = 0;
      hits = 0;
      misses = 0;
      flushes_full = 0;
      flushes_asid = 0;
      flushes_page = 0;
    }

  let set_of t vpn = t.sets.(vpn mod t.n_sets)

  let lookup t ~asid ~vpn =
    t.tick <- t.tick + 1;
    let found = ref None in
    Array.iter
      (fun e ->
        if e.valid && e.asid = asid && e.vpn = vpn then begin
          e.stamp <- t.tick;
          found := Some e.frame
        end)
      (set_of t vpn);
    (match !found with
    | Some _ -> t.hits <- t.hits + 1
    | None -> t.misses <- t.misses + 1);
    !found

  let insert t ~asid ~vpn ~frame =
    t.tick <- t.tick + 1;
    let set = set_of t vpn in
    let victim = ref set.(0) in
    Array.iter
      (fun e ->
        (* Prefer an invalid way; otherwise evict the least recently used. *)
        if not e.valid then begin
          if !victim.valid then victim := e
        end
        else if !victim.valid && e.stamp < !victim.stamp then victim := e)
      set;
    let e = !victim in
    e.valid <- true;
    e.asid <- asid;
    e.vpn <- vpn;
    e.frame <- frame;
    e.stamp <- t.tick

  let iter_entries t f = Array.iter (fun set -> Array.iter f set) t.sets

  let flush_all t =
    t.flushes_full <- t.flushes_full + 1;
    iter_entries t (fun e -> e.valid <- false)

  let flush_asid t ~asid =
    t.flushes_asid <- t.flushes_asid + 1;
    iter_entries t (fun e -> if e.asid = asid then e.valid <- false)

  let flush_page t ~asid ~vpn =
    t.flushes_page <- t.flushes_page + 1;
    iter_entries t (fun e -> if e.asid = asid && e.vpn = vpn then e.valid <- false)

  (* Valid entries in set-major, way order, as (asid, vpn, frame). *)
  let valid t =
    let out = ref [] in
    iter_entries t (fun e -> if e.valid then out := (e.asid, e.vpn, e.frame) :: !out);
    List.rev !out

  let occupied t = List.length (valid t)
end
