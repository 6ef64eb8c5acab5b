(* A PTE leaf is the flat 512-entry array plus a presence bitset over it:
   bit i of [mapped_words.(i / 32)] is set iff [ptes.(i) <> Pte.none]
   (present OR swapped — "mapped" in the SwapVA precheck sense), and
   [mapped_count] is the maintained popcount.  The bitset lets the flat
   SwapVA engine precheck a whole slice in O(words) — one compare when
   the leaf is fully mapped — instead of loading every PTE.

   Invariant discipline: every none<->mapped transition goes through
   [set_pte] (heap map/unmap, reclaim swap-out/fault-in), which updates
   the bitset; the exchange paths (swap_pte_runs, the per-page walker
   slots, the overlap rotation) only ever write already-mapped values
   over already-mapped values, so they cannot invalidate it.  The
   svagc_check oracle re-derives the bitset from the PTE array
   (see [iter_leaf_records]) to enforce exactly that. *)

type leaf = {
  ptes : Pte.value array;
  mapped_words : int array;  (* Addr.entries_per_table / 32 words, 32 bits each *)
  mutable mapped_count : int;
}

type node =
  | Dir of node option array
  | Leaf of leaf

type t = { root : node option array }

let walk_dir_levels = 4

let word_bits = 32
let words_per_leaf = Addr.entries_per_table / word_bits
let full_word = 0xFFFFFFFF

let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0xFF

let make_leaf () =
  {
    ptes = Array.make Addr.entries_per_table Pte.none;
    mapped_words = Array.make words_per_leaf 0;
    mapped_count = 0;
  }

let create () = { root = Array.make Addr.entries_per_table None }

let indices va =
  (Addr.pgd_index va, Addr.p4d_index va, Addr.pud_index va, Addr.pmd_index va)

let find_leaf_record t va =
  let i_pgd, i_p4d, i_pud, i_pmd = indices va in
  let step slot =
    match slot with
    | Some (Dir entries) -> Some entries
    | Some (Leaf _) | None -> None
  in
  match step t.root.(i_pgd) with
  | None -> None
  | Some p4d -> (
    match step p4d.(i_p4d) with
    | None -> None
    | Some pud -> (
      match step pud.(i_pud) with
      | None -> None
      | Some pmd -> (
        match pmd.(i_pmd) with
        | Some (Leaf leaf) -> Some leaf
        | Some (Dir _) | None -> None)))

let find_leaf t va =
  match find_leaf_record t va with
  | Some leaf -> Some leaf.ptes
  | None -> None

let ensure_dir slot_get slot_set =
  match slot_get () with
  | Some (Dir entries) -> entries
  | Some (Leaf _) -> invalid_arg "Page_table: leaf found at directory level"
  | None ->
    let entries = Array.make Addr.entries_per_table None in
    slot_set (Dir entries);
    entries

let ensure_leaf_record t va =
  let i_pgd, i_p4d, i_pud, i_pmd = indices va in
  let p4d =
    ensure_dir (fun () -> t.root.(i_pgd)) (fun n -> t.root.(i_pgd) <- Some n)
  in
  let pud =
    ensure_dir (fun () -> p4d.(i_p4d)) (fun n -> p4d.(i_p4d) <- Some n)
  in
  let pmd =
    ensure_dir (fun () -> pud.(i_pud)) (fun n -> pud.(i_pud) <- Some n)
  in
  match pmd.(i_pmd) with
  | Some (Leaf leaf) -> leaf
  | Some (Dir _) -> invalid_arg "Page_table: directory found at leaf level"
  | None ->
    let leaf = make_leaf () in
    pmd.(i_pmd) <- Some (Leaf leaf);
    leaf

let ensure_leaf t va = (ensure_leaf_record t va).ptes

let get_pte t va =
  match find_leaf_record t va with
  | None -> Pte.none
  | Some leaf -> leaf.ptes.(Addr.pte_index va)

let leaf_mapped_count leaf = leaf.mapped_count
let leaf_ptes leaf = leaf.ptes

(* First index in [lo, hi) whose PTE is none, or -1 when the whole window
   is mapped.  O(1) when the leaf is full; otherwise a masked word scan —
   at most 16 loads per leaf instead of up to 512 PTE loads. *)
let leaf_first_unmapped leaf ~lo ~hi =
  if lo < 0 || hi > Addr.entries_per_table || lo > hi then
    invalid_arg "Page_table.leaf_first_unmapped: bad window";
  if leaf.mapped_count = Addr.entries_per_table || lo = hi then -1
  else begin
    let words = leaf.mapped_words in
    let result = ref (-1) in
    let w = ref (lo / word_bits) in
    let last_w = (hi - 1) / word_bits in
    while !result < 0 && !w <= last_w do
      let base = !w * word_bits in
      (* Bits of this word that fall inside [lo, hi). *)
      let from_bit = if base < lo then lo - base else 0 in
      let upto_bit = if base + word_bits > hi then hi - base else word_bits in
      let mask =
        let hi_mask =
          if upto_bit = word_bits then full_word else (1 lsl upto_bit) - 1
        in
        hi_mask land lnot ((1 lsl from_bit) - 1)
      in
      let missing = lnot (Array.unsafe_get words !w) land mask in
      if missing <> 0 then begin
        (* Lowest set bit of [missing] = first unmapped index. *)
        let bit = ref 0 in
        while missing land (1 lsl !bit) = 0 do
          incr bit
        done;
        result := base + !bit
      end;
      incr w
    done;
    !result
  end

let swap_pte_runs leaf_a ~start_a leaf_b ~start_b ~len =
  if len < 0 then invalid_arg "Page_table.swap_pte_runs: negative length";
  if
    start_a < 0 || start_b < 0
    || start_a + len > Array.length leaf_a
    || start_b + len > Array.length leaf_b
  then invalid_arg "Page_table.swap_pte_runs: slice out of bounds";
  if leaf_a == leaf_b && abs (start_a - start_b) < len then
    invalid_arg "Page_table.swap_pte_runs: overlapping slices";
  (* Allocation-free elementwise exchange.  A blit-based version either
     allocates its temporary per call — a 512-entry array is over the
     minor-heap allocation limit, so it lands on the major heap and paces
     major-GC slices over whatever the simulated machine keeps live — or
     moves 3x the memory traffic through a scratch, which loses once the
     PTE working set outgrows the cache.  PTE values are immediates, so
     this loop is pure int traffic (bounds already checked above).
     Exchanging mapped-for-mapped values never changes mappedness, so the
     presence bitsets of the owning leaves stay valid untouched. *)
  for i = 0 to len - 1 do
    let a = Array.unsafe_get leaf_a (start_a + i) in
    Array.unsafe_set leaf_a (start_a + i) (Array.unsafe_get leaf_b (start_b + i));
    Array.unsafe_set leaf_b (start_b + i) a
  done

let pmd_slot t va =
  let i_pgd, i_p4d, i_pud, i_pmd = indices va in
  let step slot =
    match slot with
    | Some (Dir entries) -> Some entries
    | Some (Leaf _) | None -> None
  in
  match step t.root.(i_pgd) with
  | None -> None
  | Some p4d -> (
    match step p4d.(i_p4d) with
    | None -> None
    | Some pud -> (
      match step pud.(i_pud) with
      | None -> None
      | Some pmd -> Some (pmd, i_pmd)))

let swap_pmd_entries t va_a va_b =
  let aligned va = Addr.pte_index va = 0 && Addr.page_offset va = 0 in
  if not (aligned va_a && aligned va_b) then
    invalid_arg "Page_table.swap_pmd_entries: addresses must be PMD-aligned";
  match (pmd_slot t va_a, pmd_slot t va_b) with
  | Some (pmd_a, i_a), Some (pmd_b, i_b) -> (
    match (pmd_a.(i_a), pmd_b.(i_b)) with
    | (Some (Leaf _) as a), (Some (Leaf _) as b) ->
      pmd_a.(i_a) <- b;
      pmd_b.(i_b) <- a
    | _ -> invalid_arg "Page_table.swap_pmd_entries: no leaf at PMD slot")
  | _ -> invalid_arg "Page_table.swap_pmd_entries: no leaf at PMD slot"

let set_pte t va v =
  let leaf = ensure_leaf_record t va in
  let idx = Addr.pte_index va in
  let old = leaf.ptes.(idx) in
  leaf.ptes.(idx) <- v;
  let was = old <> Pte.none and now = v <> Pte.none in
  if was <> now then begin
    let w = idx lsr 5 and bit = 1 lsl (idx land 31) in
    if now then begin
      leaf.mapped_words.(w) <- leaf.mapped_words.(w) lor bit;
      leaf.mapped_count <- leaf.mapped_count + 1
    end
    else begin
      leaf.mapped_words.(w) <- leaf.mapped_words.(w) land lnot bit;
      leaf.mapped_count <- leaf.mapped_count - 1
    end
  end

let translate t va =
  let v = get_pte t va in
  if Pte.is_present v then Some (Pte.frame_exn v, Addr.page_offset va) else None

(* --- flat run resolution (scratch-buffer API, no per-op allocation) --- *)

type run_buf = {
  mutable rb_leaves : leaf array;
  mutable rb_pack : int array;  (* (start lsl 10) lor len; start<512, len<=512 *)
  mutable rb_n : int;
}

(* Shared placeholder for unused slots; never written through. *)
let dummy_leaf = make_leaf ()

let run_buf_create () =
  { rb_leaves = Array.make 8 dummy_leaf; rb_pack = Array.make 8 0; rb_n = 0 }

let run_buf_length buf = buf.rb_n

let run_buf_clear buf = buf.rb_n <- 0

let run_buf_get buf i =
  if i < 0 || i >= buf.rb_n then invalid_arg "Page_table.run_buf_get";
  (buf.rb_leaves.(i), buf.rb_pack.(i) lsr 10, buf.rb_pack.(i) land 0x3FF)

(* Non-allocating accessors for the merge loop (no tuple per slice). *)
let run_buf_leaf buf i = buf.rb_leaves.(i)
let run_buf_start buf i = buf.rb_pack.(i) lsr 10
let run_buf_len buf i = buf.rb_pack.(i) land 0x3FF

let run_buf_push buf leaf ~start ~len =
  let n = buf.rb_n in
  if n = Array.length buf.rb_pack then begin
    let cap' = 2 * n in
    let leaves = Array.make cap' dummy_leaf in
    Array.blit buf.rb_leaves 0 leaves 0 n;
    buf.rb_leaves <- leaves;
    let pack = Array.make cap' 0 in
    Array.blit buf.rb_pack 0 pack 0 n;
    buf.rb_pack <- pack
  end;
  buf.rb_leaves.(n) <- leaf;
  buf.rb_pack.(n) <- (start lsl 10) lor len;
  buf.rb_n <- n + 1

(* Slice [pages] pages starting at [va] into per-leaf (start, len) runs —
   one directory descent per PMD leaf — into [buf] (reused across calls;
   int-packed descriptors, so a warm buffer makes this allocation-free).
   Returns -1 on success, or the index (in pages, from the start of the
   range) of the first page with no leaf.  Presence is NOT checked here:
   callers precheck via [leaf_first_unmapped] (bitset words) or per-page
   when a fault injector must be consulted in address order. *)
let resolve_leaf_slices t ~va ~pages ~buf =
  buf.rb_n <- 0;
  let cursor = ref va and remaining = ref pages in
  let failed = ref (-1) in
  while !failed < 0 && !remaining > 0 do
    match find_leaf_record t !cursor with
    | None -> failed := pages - !remaining
    | Some leaf ->
      let start = Addr.pte_index !cursor in
      let len = min !remaining (Addr.entries_per_table - start) in
      run_buf_push buf leaf ~start ~len;
      cursor := !cursor + (len * Addr.page_size);
      remaining := !remaining - len
  done;
  !failed

let fold_leaves t ~f =
  (* Reconstruct virtual page numbers from the index path. *)
  let rec walk node ~level ~base =
    match node with
    | Leaf leaf ->
      Array.iteri
        (fun i v ->
          if Pte.is_present v then
            f ~vpn:((base * Addr.entries_per_table) + i) ~frame:(Pte.frame_exn v))
        leaf.ptes
    | Dir entries ->
      Array.iteri
        (fun i slot ->
          match slot with
          | None -> ()
          | Some child ->
            walk child ~level:(level - 1) ~base:((base * Addr.entries_per_table) + i))
        entries
  in
  Array.iteri
    (fun i slot ->
      match slot with
      | None -> ()
      | Some child -> walk child ~level:(walk_dir_levels - 1) ~base:i)
    t.root

let iter_mapped t ~f = fold_leaves t ~f

let mapped_pages t =
  let n = ref 0 in
  fold_leaves t ~f:(fun ~vpn:_ ~frame:_ -> incr n);
  !n

(* Same walk as [fold_leaves] but over the non-present half of the encoding:
   the svagc_check reclaim oracle uses this to account for every swap slot a
   table references. *)
let iter_swapped t ~f =
  let rec walk node ~base =
    match node with
    | Leaf leaf ->
      Array.iteri
        (fun i v ->
          if Pte.is_swapped v then
            f ~vpn:((base * Addr.entries_per_table) + i) ~slot:(Pte.swap_slot_exn v))
        leaf.ptes
    | Dir entries ->
      Array.iteri
        (fun i slot ->
          match slot with
          | None -> ()
          | Some child -> walk child ~base:((base * Addr.entries_per_table) + i))
        entries
  in
  Array.iteri
    (fun i slot ->
      match slot with None -> () | Some child -> walk child ~base:i)
    t.root

let swapped_pages t =
  let n = ref 0 in
  iter_swapped t ~f:(fun ~vpn:_ ~slot:_ -> incr n);
  !n

let iter_leaf_records t ~f =
  let rec walk node =
    match node with
    | Leaf leaf -> f leaf
    | Dir entries ->
      Array.iter
        (fun slot -> match slot with None -> () | Some child -> walk child)
        entries
  in
  Array.iter
    (fun slot -> match slot with None -> () | Some child -> walk child)
    t.root

(* Oracle for the bitset invariant: recompute every leaf's presence words
   from its PTE array.  Returns the number of inconsistent leaves. *)
let bitset_violations t =
  let bad = ref 0 in
  iter_leaf_records t ~f:(fun leaf ->
      let count = ref 0 in
      let ok = ref true in
      for w = 0 to words_per_leaf - 1 do
        let expect = ref 0 in
        let base = w * word_bits in
        for b = 0 to word_bits - 1 do
          if leaf.ptes.(base + b) <> Pte.none then
            expect := !expect lor (1 lsl b)
        done;
        if leaf.mapped_words.(w) <> !expect then ok := false;
        count := !count + popcount32 !expect
      done;
      if leaf.mapped_count <> !count then ok := false;
      if not !ok then incr bad);
  !bad
