type stats = {
  mutable accesses : int;
  mutable misses : int;
}

(* Set-major flat layout with one recency ring per set: set [s]'s ways
   occupy [s * ways .. s * ways + ways - 1] of [tags], and [heads.(s)] is
   the slot of its most recently used line.  Walking the ring forward from
   the head (wrapping at the end of the set) visits the valid lines from
   MRU to LRU, then the invalid slots (tag -1).  A miss writes its tag into
   the slot just behind the head and makes it the new head: while the set
   is filling that slot is invalid, once it is full it holds the LRU line.
   A hit slides the lines in front of it one slot back and puts its tag at
   the head.  Tags are unique within a set, because a line is filled only
   on a miss, so the probe may scan the set in any order.  This is exact
   LRU, with invalid ways filled first. *)
type t = {
  tags : int array; (* -1 = invalid *)
  heads : int array; (* per set: slot of the MRU line *)
  ways : int;
  set_mask : int;
  set_shift : int;
  line : int;
  line_shift : int;
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
    heads = Array.init n_sets (fun s -> s * ways);
    ways;
    set_mask = n_sets - 1;
    set_shift = log2 n_sets;
    line = line_bytes;
    line_shift = log2 line_bytes;
    st = { accesses = 0; misses = 0 };
  }

(* One access to [set]; returns whether it hit.  The scan runs from the
   head to the end of the set, then from the start of the set up to the
   head, so recently used lines are found first. *)
let probe (tags : int array) heads ways ~set ~tag =
  let base = set * ways in
  let last = base + ways - 1 in
  let head = heads.(set) in
  let slot =
    let i = ref head in
    while !i <= last && tags.(!i) <> tag do
      incr i
    done;
    if !i <= last then !i
    else begin
      i := base;
      while !i < head && tags.(!i) <> tag do
        incr i
      done;
      if !i < head then !i else -1
    end
  in
  if slot >= 0 then begin
    (* Slide the lines between the head and the hit slot one slot back. *)
    let j = ref slot in
    while !j <> head do
      let prev = if !j = base then last else !j - 1 in
      tags.(!j) <- tags.(prev);
      j := prev
    done;
    tags.(head) <- tag;
    true
  end
  else begin
    let fill = if head = base then last else head - 1 in
    tags.(fill) <- tag;
    heads.(set) <- fill;
    false
  end

let access_range t ~addr ~len =
  if len > 0 then begin
    let tags = t.tags and heads = t.heads and ways = t.ways in
    let set_mask = t.set_mask and set_shift = t.set_shift in
    let first = addr lsr t.line_shift in
    let last = (addr + len - 1) lsr t.line_shift in
    let misses = ref 0 in
    for line_no = first to last do
      if
        not
          (probe tags heads ways ~set:(line_no land set_mask)
             ~tag:(line_no lsr set_shift))
      then incr misses
    done;
    t.st.accesses <- t.st.accesses + (last - first + 1);
    t.st.misses <- t.st.misses + !misses
  end

let access t ~addr = access_range t ~addr ~len:1

let stats t = t.st

let miss_rate t =
  if t.st.accesses = 0 then 0.0
  else float_of_int t.st.misses /. float_of_int t.st.accesses *. 100.0

let reset_stats t =
  t.st.accesses <- 0;
  t.st.misses <- 0

let line_bytes t = t.line
