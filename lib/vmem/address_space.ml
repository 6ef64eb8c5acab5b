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
   PTE present — so the recursive retry terminates after one fault. *)
let rec frame_of_exn t va =
  let pte = Page_table.get_pte t.pt va in
  if Pte.is_present pte then begin
    (match t.machine.Machine.reclaim with
    | None -> ()
    | Some r -> r.Machine.ri_page_touched ~asid:t.asid ~va);
    (Pte.frame_exn pte, Addr.page_offset va)
  end
  else if Pte.is_swapped pte then begin
    match t.machine.Machine.reclaim with
    | Some r ->
      r.Machine.ri_fault_in ~pt:t.pt ~asid:t.asid ~va;
      frame_of_exn t va
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
    let frame, off = frame_of_exn t !pos in
    let chunk = min !remaining (Addr.page_size - off) in
    f ~frame ~off ~chunk ~at:!consumed;
    pos := !pos + chunk;
    consumed := !consumed + chunk;
    remaining := !remaining - chunk
  done

let read_into t ~va ~len dst =
  if len > Bytes.length dst then invalid_arg "Address_space.read_into: buffer too short";
  iter_chunks t ~va ~len (fun ~frame ~off ~chunk ~at ->
      let src = Phys_mem.frame_bytes t.machine.Machine.phys frame in
      Bytes.blit src off dst at chunk)

let read_bytes t ~va ~len =
  let out = Bytes.create len in
  read_into t ~va ~len out;
  out

let write_from t ~va ~src ~len =
  if len > Bytes.length src then invalid_arg "Address_space.write_from: buffer too short";
  iter_chunks t ~va ~len (fun ~frame ~off ~chunk ~at ->
      Phys_mem.write t.machine.Machine.phys ~frame ~off ~src ~src_off:at ~len:chunk)

let write_bytes t ~va ~src = write_from t ~va ~src ~len:(Bytes.length src)

let read_u8 t ~va =
  let frame, off = frame_of_exn t va in
  Char.code (Bytes.get (Phys_mem.frame_bytes t.machine.Machine.phys frame) off)

let write_u8 t ~va v =
  let frame, off = frame_of_exn t va in
  Bytes.set (Phys_mem.frame_bytes t.machine.Machine.phys frame) off
    (Char.chr (v land 0xff))

(* An 8-byte access that stays inside one page reads or writes the frame
   in place, through the same single [frame_of_exn] the chunked path would
   make; one that straddles a page boundary takes the chunked path. *)
let in_one_page va = Addr.page_offset va <= Addr.page_size - 8

let read_i64 t ~va =
  if in_one_page va then begin
    let frame, off = frame_of_exn t va in
    Bytes.get_int64_le (Phys_mem.frame_bytes t.machine.Machine.phys frame) off
  end
  else Bytes.get_int64_le (read_bytes t ~va ~len:8) 0

let write_i64 t ~va v =
  if in_one_page va then begin
    let frame, off = frame_of_exn t va in
    Bytes.set_int64_le (Phys_mem.frame_bytes t.machine.Machine.phys frame) off v
  end
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    write_bytes t ~va ~src:b
  end

let fill t ~va ~len c =
  iter_chunks t ~va ~len (fun ~frame ~off ~chunk ~at:_ ->
      Bytes.fill (Phys_mem.frame_bytes t.machine.Machine.phys frame) off chunk c)

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
   (frame_of_exn runs the fault handler, and marks the page referenced)
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
    let frame, _off = frame_of_exn t va in
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
