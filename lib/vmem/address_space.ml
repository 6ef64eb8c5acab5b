type t = {
  machine : Machine.t;
  asid : int;
  pt : Page_table.t;
}

(* See [Machine.created_hook]: lets svagc_check learn about every address
   space (asid -> live page table) without a dependency cycle. *)
let created_hook : (t -> unit) option ref = ref None

let create machine =
  let t =
    { machine; asid = Machine.fresh_asid machine; pt = Page_table.create () }
  in
  (match !created_hook with None -> () | Some f -> f t);
  t

let machine t = t.machine

let asid t = t.asid

let page_table t = t.pt

let map_range t ~va ~pages =
  if not (Addr.is_page_aligned va) then
    invalid_arg "Address_space.map_range: va not page-aligned";
  for i = 0 to pages - 1 do
    let page_va = va + (i * Addr.page_size) in
    if Pte.is_mapped (Page_table.get_pte t.pt page_va) then
      invalid_arg "Address_space.map_range: page already mapped";
    let frame = Phys_mem.alloc_frame t.machine.Machine.phys in
    Page_table.set_pte t.pt page_va (Pte.make ~frame);
    match t.machine.Machine.reclaim with
    | None -> ()
    | Some r -> r.Machine.ri_page_mapped ~pt:t.pt ~asid:t.asid ~va:page_va
  done

let unmap_range t ~va ~pages =
  for i = 0 to pages - 1 do
    let page_va = Addr.align_down va + (i * Addr.page_size) in
    let pte = Page_table.get_pte t.pt page_va in
    if Pte.is_mapped pte then begin
      (* Tell the pressure plane first (it drops the page from its LRU
         lists, or frees a swapped page's slot), then release the frame. *)
      (match t.machine.Machine.reclaim with
      | None -> ()
      | Some r -> r.Machine.ri_page_unmapped ~asid:t.asid ~va:page_va ~pte);
      if Pte.is_present pte then
        Phys_mem.free_frame t.machine.Machine.phys (Pte.frame_exn pte);
      Page_table.set_pte t.pt page_va Pte.none
    end
  done

let is_mapped t ~va = Pte.is_mapped (Page_table.get_pte t.pt va)

let translate t ~va = Page_table.translate t.pt va

(* Demand paging lives here: any access that needs the backing frame of a
   swapped-out page routes through the pressure plane's fault handler,
   which swaps the page back in (possibly evicting others) and leaves the
   PTE present — so the recursive retry terminates after one fault.
   Returns the frame only (the offset is [Addr.page_offset va]), so the
   per-page paths allocate nothing. *)
let rec frame_exn t va =
  let pte = Page_table.get_pte t.pt va in
  if Pte.is_present pte then begin
    (match t.machine.Machine.reclaim with
    | None -> ()
    | Some r -> r.Machine.ri_page_touched ~asid:t.asid ~va);
    Pte.frame_exn pte
  end
  else if Pte.is_swapped pte then begin
    match t.machine.Machine.reclaim with
    | Some r ->
      r.Machine.ri_fault_in ~pt:t.pt ~asid:t.asid ~va;
      frame_exn t va
    | None ->
      invalid_arg
        (Format.asprintf
           "Address_space: swapped address %a with no reclaim plane" Addr.pp va)
  end
  else
    invalid_arg (Format.asprintf "Address_space: unmapped address %a" Addr.pp va)

(* Apply [f frame off len] to each page-bounded chunk of [va, va+len). *)
let iter_chunks t ~va ~len f =
  let pos = ref va in
  let remaining = ref len in
  let consumed = ref 0 in
  while !remaining > 0 do
    let frame = frame_exn t !pos in
    let off = Addr.page_offset !pos in
    let chunk = min !remaining (Addr.page_size - off) in
    f ~frame ~off ~chunk ~at:!consumed;
    pos := !pos + chunk;
    consumed := !consumed + chunk;
    remaining := !remaining - chunk
  done

(* Reads test [Phys_mem.is_zeroed] first: a lazy zero page reads as
   zeroes and stays unbacked.  Only writes materialize a frame. *)
let read_bytes t ~va ~len =
  let out = Bytes.create len in
  let phys = t.machine.Machine.phys in
  iter_chunks t ~va ~len (fun ~frame ~off ~chunk ~at ->
      if Phys_mem.is_zeroed phys frame then Bytes.fill out at chunk '\000'
      else Bytes.blit (Phys_mem.frame_bytes phys frame) off out at chunk);
  out

let write_bytes t ~va ~src =
  let phys = t.machine.Machine.phys in
  iter_chunks t ~va ~len:(Bytes.length src) (fun ~frame ~off ~chunk ~at ->
      Phys_mem.write phys ~frame ~off ~src ~src_off:at ~len:chunk)

let read_u8 t ~va =
  let phys = t.machine.Machine.phys in
  let frame = frame_exn t va in
  if Phys_mem.is_zeroed phys frame then 0
  else Char.code (Bytes.get (Phys_mem.frame_bytes phys frame) (Addr.page_offset va))

let write_u8 t ~va v =
  let frame = frame_exn t va in
  Bytes.set (Phys_mem.frame_bytes t.machine.Machine.phys frame) (Addr.page_offset va)
    (Char.chr (v land 0xff))

(* An 8-byte access that stays inside one page reads or writes the frame
   in place, through the same single [frame_exn] the chunked path would
   make; one that straddles a page boundary takes the chunked path. *)
let in_one_page va = Addr.page_offset va <= Addr.page_size - 8

let read_i64 t ~va =
  if in_one_page va then begin
    let phys = t.machine.Machine.phys in
    let frame = frame_exn t va in
    if Phys_mem.is_zeroed phys frame then 0L
    else Bytes.get_int64_le (Phys_mem.frame_bytes phys frame) (Addr.page_offset va)
  end
  else Bytes.get_int64_le (read_bytes t ~va ~len:8) 0

let write_i64 t ~va v =
  if in_one_page va then begin
    let frame = frame_exn t va in
    Bytes.set_int64_le (Phys_mem.frame_bytes t.machine.Machine.phys frame)
      (Addr.page_offset va) v
  end
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_bytes t ~va ~src:b
  end

let fill t ~va ~len c =
  iter_chunks t ~va ~len (fun ~frame ~off ~chunk ~at:_ ->
      Bytes.fill (Phys_mem.frame_bytes t.machine.Machine.phys frame) off chunk c)

(* The staged copy behind memmove: every source chunk is staged before any
   destination chunk is written, which gives memmove semantics for any
   overlap, and [frame_exn] runs on every source page and then every
   destination page, in address order — so under reclaim the demand
   faults, LRU touches and evictions are exactly those of a plain
   read-then-write copy.

   Zero pages stay zero.  Phase 1 flags a source chunk on a lazy zero
   frame instead of staging it, and never materializes it.  In phase 2 a
   destination chunk whose source pages (at most two: a chunk is at most
   a page) are all flagged needs no copy: a whole page becomes a lazy
   zero page again, and a partial chunk on a lazy zero frame is already
   zeroes.  Any other chunk is written per source page: zeroes where the
   page is flagged, staged bytes elsewhere — so the staging buffer is
   never read where phase 1 skipped it.  Flags are per source page
   because an unaligned destination page straddles two of them.  The
   loops are written out (no closure, no tuple per chunk), so a call
   whose scratch is already large enough allocates nothing. *)
let copy t ~src ~dst ~len =
  if len < 0 then invalid_arg "Address_space.copy: negative length";
  if len > 0 then begin
    let phys = t.machine.Machine.phys in
    let scratch = Machine.hot_scratch t.machine in
    let src_off = Addr.page_offset src in
    if Bytes.length scratch.Machine.hs_copy_buf < len then
      scratch.Machine.hs_copy_buf <- Bytes.create len;
    let src_pages = Addr.pages_spanned (src_off + len) in
    if Bytes.length scratch.Machine.hs_zero_pages < src_pages then
      scratch.Machine.hs_zero_pages <- Bytes.create src_pages;
    let buf = scratch.Machine.hs_copy_buf in
    let zero = scratch.Machine.hs_zero_pages in
    let at = ref 0 in
    while !at < len do
      let va = src + !at in
      let frame = frame_exn t va in
      let off = Addr.page_offset va in
      let chunk = min (len - !at) (Addr.page_size - off) in
      let page = (src_off + !at) lsr Addr.page_shift in
      if Phys_mem.is_zeroed phys frame then Bytes.unsafe_set zero page '\001'
      else begin
        Bytes.unsafe_set zero page '\000';
        Bytes.blit (Phys_mem.frame_bytes phys frame) off buf !at chunk
      end;
      at := !at + chunk
    done;
    at := 0;
    while !at < len do
      let va = dst + !at in
      let frame = frame_exn t va in
      let off = Addr.page_offset va in
      let chunk = min (len - !at) (Addr.page_size - off) in
      let stop = !at + chunk in
      let first = (src_off + !at) lsr Addr.page_shift in
      let last = (src_off + stop - 1) lsr Addr.page_shift in
      let staged_zero =
        Bytes.unsafe_get zero first = '\001' && Bytes.unsafe_get zero last = '\001'
      in
      if staged_zero && chunk = Addr.page_size then Phys_mem.zero_frame phys frame
      else if not (staged_zero && Phys_mem.is_zeroed phys frame) then begin
        (* One segment per source page under the chunk: zeroes for a
           flagged page, staged bytes otherwise. *)
        let bytes = Phys_mem.frame_bytes phys frame in
        let seg = ref !at in
        while !seg < stop do
          let page = (src_off + !seg) lsr Addr.page_shift in
          let seg_stop = min stop (((page + 1) lsl Addr.page_shift) - src_off) in
          let pos = off + (!seg - !at) in
          if Bytes.unsafe_get zero page = '\001' then
            Bytes.fill bytes pos (seg_stop - !seg) '\000'
          else Bytes.blit buf !seg bytes pos (seg_stop - !seg);
          seg := seg_stop
        done
      end;
      at := stop
    done
  end

(* The payload of [va]'s page, without faulting. *)
let peek_payload t va =
  let pte = Page_table.get_pte t.pt va in
  if Pte.is_present pte then
    Phys_mem.frame_contents t.machine.Machine.phys (Pte.frame_exn pte)
  else if Pte.is_swapped pte then begin
    match t.machine.Machine.reclaim with
    | Some r -> r.Machine.ri_slot_bytes ~slot:(Pte.swap_slot_exn pte)
    | None ->
      invalid_arg
        (Format.asprintf
           "Address_space: swapped address %a with no reclaim plane" Addr.pp va)
  end
  else invalid_arg (Format.asprintf "Address_space: unmapped address %a" Addr.pp va)

(* Non-faulting page-chunk iteration: [f] receives the page's payload as
   [Some bytes] (read at [off]) or [None] for a logically-zero page.  Used
   by the oracles (checksum, audit) so that *observing* the heap never
   swaps pages in, materializes zero frames, or perturbs LRU state. *)
let iter_chunks_peek t ~va ~len f =
  let pos = ref va in
  let remaining = ref len in
  let consumed = ref 0 in
  while !remaining > 0 do
    let off = Addr.page_offset !pos in
    let chunk = min !remaining (Addr.page_size - off) in
    f ~payload:(peek_payload t !pos) ~off ~chunk ~at:!consumed;
    pos := !pos + chunk;
    consumed := !consumed + chunk;
    remaining := !remaining - chunk
  done

let peek_bytes t ~va ~len =
  let out = Bytes.create len in
  iter_chunks_peek t ~va ~len (fun ~payload ~off ~chunk ~at ->
      match payload with
      | Some b -> Bytes.blit b off out at chunk
      | None -> Bytes.fill out at chunk '\000');
  out

let peek_i64 t ~va =
  if in_one_page va then
    match peek_payload t va with
    | Some b -> Bytes.get_int64_le b (Addr.page_offset va)
    | None -> 0L
  else Bytes.get_int64_le (peek_bytes t ~va ~len:8) 0

let checksum t ~va ~len =
  let h = ref 0xcbf29ce484222325L in
  iter_chunks_peek t ~va ~len (fun ~payload ~off ~chunk ~at:_ ->
      match payload with
      | Some b ->
        for i = off to off + chunk - 1 do
          h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)));
          h := Int64.mul !h 0x100000001b3L
        done
      | None ->
        (* FNV-1a over [chunk] zero bytes: xor-with-0 is the identity. *)
        for _ = 1 to chunk do
          h := Int64.mul !h 0x100000001b3L
        done);
  !h

(* The frame behind [va]'s page through [tlb]: a hit marks the page
   referenced for reclaim; a miss demand-faults a swapped page back in
   (frame_exn runs the fault handler, and marks the page referenced)
   and refills the TLB.  Swap-out scrubs the page from every TLB, so a
   hit always means present. *)
let tlb_frame t tlb ~va =
  let vpn = Addr.page_number va in
  let frame = Tlb.lookup tlb ~asid:t.asid ~vpn in
  if frame >= 0 then begin
    (match t.machine.Machine.reclaim with
    | None -> ()
    | Some r -> r.Machine.ri_page_touched ~asid:t.asid ~va);
    frame
  end
  else begin
    let frame = frame_exn t va in
    Tlb.insert tlb ~asid:t.asid ~vpn ~frame;
    frame
  end

let touch t ~core ~va =
  let frame = tlb_frame t (Machine.core t.machine core).Machine.tlb ~va in
  let pa = (frame * Addr.page_size) + Addr.page_offset va in
  Cache_sim.access t.machine.Machine.llc ~addr:pa

(* Page-batched {!touch} of every line in the range.  Per page, the first
   line does the real probe (and refill); the page's other k - 1 lines
   would all hit the entry just probed — nothing between them can evict
   it — so they are credited in bulk with [Tlb.repeat_hits], which leaves
   exactly the state k - 1 back-to-back hits leave.  Their reclaim
   notifications are dropped because [ri_page_touched] only sets the
   page's referenced bit, which the first line already set.  The page's
   LLC accesses go through one [Cache_sim.access_range] call: [pa] is
   line-aligned, so it covers exactly those k lines, one access per line
   in address order. *)
let touch_range t ~core ~va ~len =
  if len > 0 then begin
    let tlb = (Machine.core t.machine core).Machine.tlb in
    let llc = t.machine.Machine.llc in
    let line = Cache_sim.line_bytes llc in
    let stop = va + len in
    let pos = ref (va land lnot (line - 1)) in
    while !pos < stop do
      let page_va = !pos in
      let vpn = Addr.page_number page_va in
      let page_stop = min stop (Addr.of_page (vpn + 1)) in
      let lines = (page_stop - page_va + line - 1) / line in
      let frame = tlb_frame t tlb ~va:page_va in
      Tlb.repeat_hits tlb ~asid:t.asid ~vpn ~n:(lines - 1);
      let pa = (frame * Addr.page_size) + Addr.page_offset page_va in
      Cache_sim.access_range llc ~addr:pa ~len:(page_stop - page_va);
      pos := page_va + (lines * line)
    done
  end

let mapped_pages t = Page_table.mapped_pages t.pt
