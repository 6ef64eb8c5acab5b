type stats = {
  mutable accesses : int;
  mutable misses : int;
}

(* Set-major flat layout: set [s]'s ways occupy [s * ways .. s * ways +
   ways - 1] of [tags] and [stamps].  Two invariants make the one-pass
   [access] below exact:
   - tags are unique within a set, because a line is filled only on a miss;
   - invalid ways (tag -1) form a suffix of their set, because no line is
     ever invalidated and a fill takes the first invalid way.
   So the first matching way is the only one, and reaching an invalid way
   proves a miss whose victim (first invalid way) is that very way. *)
type t = {
  tags : int array; (* -1 = invalid *)
  stamps : int array;
  ways : int;
  set_mask : int;
  set_shift : int;
  line : int;
  line_shift : int;
  mutable tick : int;
  st : stats;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create ?(size_bytes = 8 * 1024 * 1024) ?(line_bytes = 64) ?(ways = 16) () =
  if not (is_pow2 line_bytes) then
    invalid_arg
      (Printf.sprintf "Cache_sim.create: line_bytes = %d is not a power of two"
         line_bytes);
  if ways <= 0 then
    invalid_arg (Printf.sprintf "Cache_sim.create: ways = %d must be positive" ways);
  if size_bytes <= 0 || size_bytes mod (line_bytes * ways) <> 0 then
    invalid_arg
      (Printf.sprintf
         "Cache_sim.create: size_bytes = %d is not a positive multiple of \
          line_bytes * ways = %d"
         size_bytes (line_bytes * ways));
  let n_sets = size_bytes / line_bytes / ways in
  if not (is_pow2 n_sets) then
    invalid_arg
      (Printf.sprintf "Cache_sim.create: %d sets is not a power of two" n_sets);
  {
    tags = Array.make (n_sets * ways) (-1);
    stamps = Array.make (n_sets * ways) 0;
    ways;
    set_mask = n_sets - 1;
    set_shift = log2 n_sets;
    line = line_bytes;
    line_shift = log2 line_bytes;
    tick = 0;
    st = { accesses = 0; misses = 0 };
  }

let fill t i ~tag ~tick =
  t.st.misses <- t.st.misses + 1;
  t.tags.(i) <- tag;
  t.stamps.(i) <- tick

let access t ~addr =
  let tick = t.tick + 1 in
  t.tick <- tick;
  t.st.accesses <- t.st.accesses + 1;
  let line_no = addr lsr t.line_shift in
  let tag = line_no lsr t.set_shift in
  let base = (line_no land t.set_mask) * t.ways in
  let last = base + t.ways - 1 in
  let tags = t.tags and stamps = t.stamps in
  (* Stop at the matching way or the first invalid one; on the way, track
     the first least-recently-used way for a full set. *)
  let i = ref base and victim = ref base in
  while !i <= last && tags.(!i) <> tag && tags.(!i) <> -1 do
    if stamps.(!i) < stamps.(!victim) then victim := !i;
    incr i
  done;
  if !i > last then fill t !victim ~tag ~tick
  else if tags.(!i) = -1 then fill t !i ~tag ~tick
  else stamps.(!i) <- tick

let access_range t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr t.line_shift in
    let last = (addr + len - 1) lsr t.line_shift in
    for line = first to last do
      access t ~addr:(line lsl t.line_shift)
    done
  end

let stats t = t.st

let miss_rate t =
  if t.st.accesses = 0 then 0.0
  else float_of_int t.st.misses /. float_of_int t.st.accesses *. 100.0

let reset_stats t =
  t.st.accesses <- 0;
  t.st.misses <- 0

let line_bytes t = t.line
