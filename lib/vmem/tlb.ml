type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes_full : int;
  mutable flushes_asid : int;
  mutable flushes_page : int;
}

(* Set-major flat layout: set [s]'s ways occupy [s * ways .. s * ways +
   ways - 1] of the four parallel arrays; [asids.(i) = -1] marks an invalid
   way.  Unlike the LLC, flushes punch holes anywhere in a set, so a fill
   scans the whole set for its first invalid way. *)
type t = {
  asids : int array;
  vpns : int array;
  frames : int array;
  stamps : int array;
  n_sets : int;
  ways : int;
  mutable tick : int;
  st : stats;
}

let create ?(entries = 64) ?(ways = 4) () =
  if ways <= 0 then
    invalid_arg (Printf.sprintf "Tlb.create: ways = %d must be positive" ways);
  if entries <= 0 || entries mod ways <> 0 then
    invalid_arg
      (Printf.sprintf
         "Tlb.create: entries = %d must be a positive multiple of ways = %d"
         entries ways);
  {
    asids = Array.make entries (-1);
    vpns = Array.make entries 0;
    frames = Array.make entries 0;
    stamps = Array.make entries 0;
    n_sets = entries / ways;
    ways;
    tick = 0;
    st = { hits = 0; misses = 0; flushes_full = 0; flushes_asid = 0; flushes_page = 0 };
  }

let check_asid fn asid =
  if asid < 0 then invalid_arg (Printf.sprintf "Tlb.%s: negative asid %d" fn asid)

(* Index of the valid way holding [(asid, vpn)], or -1.  Stopping at the
   first match is exact because an [(asid, vpn)] pair is resident at most
   once: the only fill path ([Address_space.touch]) inserts after a miss
   for that same pair, and [Check.tlb_coherence] reports duplicates. *)
let find t ~asid ~vpn =
  let base = (vpn mod t.n_sets) * t.ways in
  let last = base + t.ways - 1 in
  let i = ref base in
  while !i <= last && not (t.asids.(!i) = asid && t.vpns.(!i) = vpn) do
    incr i
  done;
  if !i > last then -1 else !i

let lookup t ~asid ~vpn =
  check_asid "lookup" asid;
  t.tick <- t.tick + 1;
  let i = find t ~asid ~vpn in
  if i < 0 then begin
    t.st.misses <- t.st.misses + 1;
    -1
  end
  else begin
    t.st.hits <- t.st.hits + 1;
    t.stamps.(i) <- t.tick;
    t.frames.(i)
  end

let repeat_hits t ~asid ~vpn ~n =
  if n > 0 then begin
    let i = find t ~asid ~vpn in
    if i < 0 then
      invalid_arg
        (Printf.sprintf "Tlb.repeat_hits: asid %d vpn %d is not resident" asid vpn);
    t.tick <- t.tick + n;
    t.st.hits <- t.st.hits + n;
    t.stamps.(i) <- t.tick
  end

let insert t ~asid ~vpn ~frame =
  check_asid "insert" asid;
  t.tick <- t.tick + 1;
  let base = (vpn mod t.n_sets) * t.ways in
  let last = base + t.ways - 1 in
  (* Prefer the first invalid way; otherwise evict the first least
     recently used one. *)
  let i = ref base and victim = ref base in
  while !i <= last && t.asids.(!i) <> -1 do
    if t.stamps.(!i) < t.stamps.(!victim) then victim := !i;
    incr i
  done;
  let v = if !i > last then !victim else !i in
  t.asids.(v) <- asid;
  t.vpns.(v) <- vpn;
  t.frames.(v) <- frame;
  t.stamps.(v) <- t.tick

let iter_valid t f =
  for i = 0 to Array.length t.asids - 1 do
    if t.asids.(i) <> -1 then f ~asid:t.asids.(i) ~vpn:t.vpns.(i) ~frame:t.frames.(i)
  done

let flush_all t =
  t.st.flushes_full <- t.st.flushes_full + 1;
  Array.fill t.asids 0 (Array.length t.asids) (-1)

let flush_asid t ~asid =
  t.st.flushes_asid <- t.st.flushes_asid + 1;
  for i = 0 to Array.length t.asids - 1 do
    if t.asids.(i) = asid then t.asids.(i) <- -1
  done

(* Only [vpn]'s set can hold the page. *)
let flush_page t ~asid ~vpn =
  t.st.flushes_page <- t.st.flushes_page + 1;
  let base = (vpn mod t.n_sets) * t.ways in
  for i = base to base + t.ways - 1 do
    if t.asids.(i) = asid && t.vpns.(i) = vpn then t.asids.(i) <- -1
  done

let stats t = t.st

let reset_stats t =
  t.st.hits <- 0;
  t.st.misses <- 0;
  t.st.flushes_full <- 0;
  t.st.flushes_asid <- 0;
  t.st.flushes_page <- 0

let entries t = Array.length t.asids

let occupied t =
  Array.fold_left (fun n a -> if a <> -1 then n + 1 else n) 0 t.asids
