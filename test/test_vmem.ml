(* Tests for the virtual-memory substrate: addresses, PTEs, physical
   memory, page tables, TLB, cache model, cost model, machine, address
   spaces. *)

open Svagc_vmem

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* --- Addr --- *)

let test_addr_constants () =
  Alcotest.(check int) "page size" 4096 Addr.page_size;
  Alcotest.(check int) "entries" 512 Addr.entries_per_table;
  Alcotest.(check int) "pages per pmd" 512 Addr.pages_per_pmd

let test_addr_align () =
  Alcotest.(check int) "align_up exact" 4096 (Addr.align_up 4096);
  Alcotest.(check int) "align_up" 8192 (Addr.align_up 4097);
  Alcotest.(check int) "align_down" 4096 (Addr.align_down 8191);
  Alcotest.(check bool) "aligned" true (Addr.is_page_aligned 8192);
  Alcotest.(check bool) "unaligned" false (Addr.is_page_aligned 8193)

let test_addr_pages_spanned () =
  Alcotest.(check int) "one byte" 1 (Addr.pages_spanned 1);
  Alcotest.(check int) "one page" 1 (Addr.pages_spanned 4096);
  Alcotest.(check int) "just over" 2 (Addr.pages_spanned 4097);
  Alcotest.(check int) "zero" 0 (Addr.pages_spanned 0)

let test_addr_indices () =
  (* A known decomposition: vpn = pte + 512*pmd + 512^2*pud + ... *)
  let va = Addr.of_page ((3 * 512 * 512) + (5 * 512) + 7) in
  Alcotest.(check int) "pte" 7 (Addr.pte_index va);
  Alcotest.(check int) "pmd" 5 (Addr.pmd_index va);
  Alcotest.(check int) "pud" 3 (Addr.pud_index va);
  Alcotest.(check int) "p4d" 0 (Addr.p4d_index va)

let prop_addr_roundtrip =
  qtest "addr: of_page/page_number roundtrip"
    QCheck.(int_range 0 (1 lsl 35))
    (fun vpn -> Addr.page_number (Addr.of_page vpn) = vpn)

let prop_addr_align_up_invariants =
  qtest "addr: align_up is aligned and minimal"
    QCheck.(int_range 0 (1 lsl 40))
    (fun va ->
      let a = Addr.align_up va in
      Addr.is_page_aligned a && a >= va && a - va < Addr.page_size)

(* --- Pte --- *)

let test_pte () =
  Alcotest.(check bool) "none absent" false (Pte.is_present Pte.none);
  let v = Pte.make ~frame:42 in
  Alcotest.(check bool) "present" true (Pte.is_present v);
  Alcotest.(check int) "frame" 42 (Pte.frame_exn v);
  Alcotest.check_raises "frame of none"
    (Invalid_argument "Pte.frame_exn: entry not present") (fun () ->
      ignore (Pte.frame_exn Pte.none))

(* --- Phys_mem --- *)

let test_phys_alloc_free () =
  let pm = Phys_mem.create ~frames:4 in
  let f1 = Phys_mem.alloc_frame pm in
  let f2 = Phys_mem.alloc_frame pm in
  Alcotest.(check bool) "distinct" true (f1 <> f2);
  Alcotest.(check int) "in use" 2 (Phys_mem.frames_in_use pm);
  Phys_mem.free_frame pm f1;
  Alcotest.(check int) "freed" 1 (Phys_mem.frames_in_use pm);
  Alcotest.check_raises "double free"
    (Invalid_argument "Phys_mem.free_frame: frame not in use") (fun () ->
      Phys_mem.free_frame pm f1)

let test_phys_out_of_frames () =
  let pm = Phys_mem.create ~frames:2 in
  ignore (Phys_mem.alloc_frame pm);
  ignore (Phys_mem.alloc_frame pm);
  Alcotest.check_raises "exhausted" Phys_mem.Out_of_frames (fun () ->
      ignore (Phys_mem.alloc_frame pm))

let test_phys_read_write () =
  let pm = Phys_mem.create ~frames:2 in
  let f = Phys_mem.alloc_frame pm in
  Phys_mem.write pm ~frame:f ~off:100 ~src:(Bytes.of_string "hello") ~src_off:0
    ~len:5;
  Alcotest.(check string) "readback" "hello"
    (Bytes.to_string (Phys_mem.read pm ~frame:f ~off:100 ~len:5));
  Alcotest.(check string) "zero fill" "\000"
    (Bytes.to_string (Phys_mem.read pm ~frame:f ~off:0 ~len:1))

let test_phys_blit () =
  let pm = Phys_mem.create ~frames:2 in
  let a = Phys_mem.alloc_frame pm and b = Phys_mem.alloc_frame pm in
  Phys_mem.write pm ~frame:a ~off:0 ~src:(Bytes.of_string "xyz") ~src_off:0 ~len:3;
  Phys_mem.blit pm ~src_frame:a ~src_off:0 ~dst_frame:b ~dst_off:10 ~len:3;
  Alcotest.(check string) "blitted" "xyz"
    (Bytes.to_string (Phys_mem.read pm ~frame:b ~off:10 ~len:3))

let test_phys_release_install () =
  let pm = Phys_mem.create ~frames:2 in
  let f = Phys_mem.alloc_frame pm in
  Alcotest.(check bool) "untouched frame releases as a zero page" true
    (Phys_mem.release_frame pm f = None);
  let f = Phys_mem.alloc_frame pm in
  Phys_mem.write pm ~frame:f ~off:0 ~src:(Bytes.of_string "page") ~src_off:0
    ~len:4;
  let payload =
    match Phys_mem.release_frame pm f with
    | Some b -> b
    | None -> Alcotest.fail "written frame released as a zero page"
  in
  Alcotest.(check int) "released" 0 (Phys_mem.frames_in_use pm);
  (* The same frame number comes back as a fresh zero page, not as the
     buffer just handed out. *)
  let g = Phys_mem.alloc_frame pm in
  Alcotest.(check int) "same frame reused" f g;
  Alcotest.(check string) "reused frame is zero" "\000"
    (Bytes.to_string (Phys_mem.read pm ~frame:g ~off:0 ~len:1));
  Alcotest.check_raises "install over contents"
    (Invalid_argument "Phys_mem.install: frame already has contents")
    (fun () -> Phys_mem.install pm g (Some payload));
  let h = Phys_mem.alloc_frame pm in
  Alcotest.check_raises "install a short payload"
    (Invalid_argument "Phys_mem.install: payload is not one page") (fun () ->
      Phys_mem.install pm h (Some (Bytes.create 8)));
  Phys_mem.install pm h (Some payload);
  Alcotest.(check bool) "installed without a copy" true
    (Phys_mem.frame_bytes pm h == payload)

let test_phys_zero_frame () =
  let pm = Phys_mem.create ~frames:2 in
  let f = Phys_mem.alloc_frame pm in
  Phys_mem.write pm ~frame:f ~off:7 ~src:(Bytes.of_string "data") ~src_off:0
    ~len:4;
  Phys_mem.zero_frame pm f;
  Alcotest.(check bool) "a written frame drops its payload" true
    (Phys_mem.frame_contents pm f = None);
  Phys_mem.zero_frame pm f;
  Alcotest.(check bool) "a lazy zero page stays one" true
    (Phys_mem.frame_contents pm f = None);
  Alcotest.(check string) "and reads as zeroes" "\000\000\000\000"
    (Bytes.to_string (Phys_mem.read pm ~frame:f ~off:7 ~len:4));
  Phys_mem.free_frame pm f;
  Alcotest.check_raises "free frame"
    (Invalid_argument "Phys_mem.zero_frame: frame not in use") (fun () ->
      Phys_mem.zero_frame pm f)

let test_phys_range_check () =
  let pm = Phys_mem.create ~frames:1 in
  let f = Phys_mem.alloc_frame pm in
  Alcotest.check_raises "escape" (Invalid_argument "Phys_mem: range escapes the page")
    (fun () -> ignore (Phys_mem.read pm ~frame:f ~off:4090 ~len:10))

(* --- Page_table --- *)

let test_pt_get_set () =
  let pt = Page_table.create () in
  let va = Addr.of_page 123456 in
  Alcotest.(check bool) "unmapped" false (Pte.is_present (Page_table.get_pte pt va));
  Page_table.set_pte pt va (Pte.make ~frame:9);
  Alcotest.(check int) "mapped" 9 (Pte.frame_exn (Page_table.get_pte pt va));
  Alcotest.(check (option (pair int int))) "translate" (Some (9, 17))
    (Page_table.translate pt (va + 17))

let test_pt_leaf_sharing () =
  let pt = Page_table.create () in
  let va = Addr.of_page 1000 in
  Page_table.set_pte pt va (Pte.make ~frame:1);
  Page_table.set_pte pt (va + Addr.page_size) (Pte.make ~frame:2);
  match Page_table.find_leaf pt va with
  | None -> Alcotest.fail "leaf missing"
  | Some leaf ->
    (* Both pages are in the same PMD region, hence the same leaf array. *)
    Alcotest.(check int) "slot 1" 1 (Pte.frame_exn leaf.(Addr.pte_index va));
    Alcotest.(check int) "slot 2" 2
      (Pte.frame_exn leaf.(Addr.pte_index (va + Addr.page_size)))

let test_pt_iter_mapped () =
  let pt = Page_table.create () in
  let vpns = [ 5; 700; 1 lsl 20; (1 lsl 27) + 3 ] in
  List.iteri (fun i vpn -> Page_table.set_pte pt (Addr.of_page vpn) (Pte.make ~frame:i)) vpns;
  Alcotest.(check int) "mapped count" 4 (Page_table.mapped_pages pt);
  let seen = ref [] in
  Page_table.iter_mapped pt ~f:(fun ~vpn ~frame:_ -> seen := vpn :: !seen);
  Alcotest.(check (list int)) "vpns recovered" (List.sort compare vpns)
    (List.sort compare !seen)

(* The walk's allocation law: [get_pte] allocates nothing on any path
   (mapped, a missing leaf, a missing directory), and [find_leaf]
   allocates only its [Some] (two words). *)
let test_pt_walk_allocates_nothing () =
  let pt = Page_table.create () in
  let va = Addr.of_page 123456 in
  Page_table.set_pte pt va (Pte.make ~frame:9);
  let probes =
    [| va; va + Addr.page_size; va + (Addr.pages_per_pmd * Addr.page_size); 1 lsl 46 |]
  in
  let n = 10_000 in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    sink := !sink + Page_table.get_pte pt probes.(i land 3)
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "10k get_pte calls allocate nothing" 0. (w1 -. w0);
  Alcotest.(check int) "only the mapped probe resolves" (n / 4 * Pte.make ~frame:9) !sink;
  let found = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    match Page_table.find_leaf pt va with Some _ -> incr found | None -> ()
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "every find_leaf hits" n !found;
  if w1 -. w0 > float_of_int (2 * n) then
    Alcotest.failf "%d find_leaf calls allocated %.0f words" n (w1 -. w0)

let prop_pt_model =
  qtest ~count:60 "page table agrees with a hashtable model"
    QCheck.(list (pair (int_range 0 5000) (int_range 0 100)))
    (fun ops ->
      let pt = Page_table.create () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (vpn, frame) ->
          let va = Addr.of_page vpn in
          if frame = 0 then begin
            Page_table.set_pte pt va Pte.none;
            Hashtbl.remove model vpn
          end
          else begin
            Page_table.set_pte pt va (Pte.make ~frame);
            Hashtbl.replace model vpn frame
          end)
        ops;
      Hashtbl.fold
        (fun vpn frame acc ->
          acc && Page_table.get_pte pt (Addr.of_page vpn) = Pte.make ~frame)
        model true
      && Page_table.mapped_pages pt = Hashtbl.length model)

(* --- Tlb --- *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create () in
  Alcotest.(check int) "cold miss" (-1) (Tlb.lookup tlb ~asid:1 ~vpn:10);
  Tlb.insert tlb ~asid:1 ~vpn:10 ~frame:99;
  Alcotest.(check int) "hit" 99 (Tlb.lookup tlb ~asid:1 ~vpn:10);
  Alcotest.(check int) "other asid misses" (-1)
    (Tlb.lookup tlb ~asid:2 ~vpn:10);
  let st = Tlb.stats tlb in
  Alcotest.(check int) "hits" 1 st.Tlb.hits;
  Alcotest.(check int) "misses" 2 st.Tlb.misses

let test_tlb_flush_asid () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpn:1 ~frame:1;
  Tlb.insert tlb ~asid:2 ~vpn:2 ~frame:2;
  Tlb.flush_asid tlb ~asid:1;
  Alcotest.(check int) "asid 1 gone" (-1) (Tlb.lookup tlb ~asid:1 ~vpn:1);
  Alcotest.(check int) "asid 2 stays" 2 (Tlb.lookup tlb ~asid:2 ~vpn:2)

let test_tlb_flush_page () =
  let tlb = Tlb.create () in
  Tlb.insert tlb ~asid:1 ~vpn:1 ~frame:1;
  Tlb.insert tlb ~asid:1 ~vpn:2 ~frame:2;
  Tlb.flush_page tlb ~asid:1 ~vpn:1;
  Alcotest.(check int) "flushed" (-1) (Tlb.lookup tlb ~asid:1 ~vpn:1);
  Alcotest.(check int) "kept" 2 (Tlb.lookup tlb ~asid:1 ~vpn:2)

let test_tlb_capacity_eviction () =
  let tlb = Tlb.create ~entries:8 ~ways:2 () in
  (* Fill one set (vpns congruent mod 4) beyond its 2 ways. *)
  Tlb.insert tlb ~asid:1 ~vpn:0 ~frame:0;
  Tlb.insert tlb ~asid:1 ~vpn:4 ~frame:4;
  ignore (Tlb.lookup tlb ~asid:1 ~vpn:0);
  (* vpn 4 is now LRU; inserting vpn 8 must evict it. *)
  Tlb.insert tlb ~asid:1 ~vpn:8 ~frame:8;
  Alcotest.(check int) "lru evicted" (-1) (Tlb.lookup tlb ~asid:1 ~vpn:4);
  Alcotest.(check int) "mru kept" 0 (Tlb.lookup tlb ~asid:1 ~vpn:0)

let test_tlb_occupancy () =
  let tlb = Tlb.create ~entries:8 ~ways:2 () in
  Alcotest.(check int) "empty" 0 (Tlb.occupied tlb);
  Tlb.insert tlb ~asid:1 ~vpn:3 ~frame:1;
  Alcotest.(check int) "one" 1 (Tlb.occupied tlb);
  Tlb.flush_all tlb;
  Alcotest.(check int) "flushed" 0 (Tlb.occupied tlb)

let test_tlb_rejects_bad_geometry () =
  Alcotest.check_raises "zero ways"
    (Invalid_argument "Tlb.create: ways = 0 must be positive") (fun () ->
      ignore (Tlb.create ~ways:0 ()));
  Alcotest.check_raises "entries not a multiple of ways"
    (Invalid_argument "Tlb.create: entries = 10 must be a positive multiple of ways = 4")
    (fun () -> ignore (Tlb.create ~entries:10 ()))

(* --- Cache_sim --- *)

let test_cache_rejects_bad_geometry () =
  Alcotest.check_raises "48-byte lines"
    (Invalid_argument "Cache_sim.create: line_bytes = 48 is not a power of two")
    (fun () -> ignore (Cache_sim.create ~line_bytes:48 ()));
  Alcotest.check_raises "3 sets"
    (Invalid_argument "Cache_sim.create: 3 sets is not a power of two") (fun () ->
      ignore (Cache_sim.create ~size_bytes:(3 * 64 * 16) ()))

let test_cache_hit_after_fill () =
  let c = Cache_sim.create ~size_bytes:4096 ~line_bytes:64 ~ways:2 () in
  Cache_sim.access c ~addr:0;
  Cache_sim.access c ~addr:0;
  let st = Cache_sim.stats c in
  Alcotest.(check int) "accesses" 2 st.Cache_sim.accesses;
  Alcotest.(check int) "one miss" 1 st.Cache_sim.misses

let test_cache_capacity_eviction () =
  (* 2 sets x 2 ways of 64B lines = 256 B cache; stream 3 lines into the
     same set and re-touch the first: it must have been evicted. *)
  let c = Cache_sim.create ~size_bytes:256 ~line_bytes:64 ~ways:2 () in
  let set_stride = 2 * 64 in
  Cache_sim.access c ~addr:0;
  Cache_sim.access c ~addr:set_stride;
  Cache_sim.access c ~addr:(2 * set_stride);
  Cache_sim.reset_stats c;
  Cache_sim.access c ~addr:0;
  Alcotest.(check int) "evicted -> miss" 1 (Cache_sim.stats c).Cache_sim.misses

let test_cache_access_range () =
  let c = Cache_sim.create () in
  Cache_sim.access_range c ~addr:0 ~len:256;
  Alcotest.(check int) "4 lines" 4 (Cache_sim.stats c).Cache_sim.accesses;
  Cache_sim.reset_stats c;
  Cache_sim.access_range c ~addr:60 ~len:8;
  Alcotest.(check int) "straddles two lines" 2 (Cache_sim.stats c).Cache_sim.accesses

let test_cache_miss_rate () =
  let c = Cache_sim.create () in
  Alcotest.(check (float 1e-9)) "no accesses" 0.0 (Cache_sim.miss_rate c);
  Cache_sim.access c ~addr:0;
  Alcotest.(check (float 1e-9)) "all miss" 100.0 (Cache_sim.miss_rate c)

(* --- Cost_model --- *)

let test_cost_memmove_tiers () =
  let m = Cost_model.xeon_6130 in
  let small = Cost_model.memmove_bw m ~bytes_len:4096 in
  let big = Cost_model.memmove_bw m ~bytes_len:(64 * 1024 * 1024) in
  Alcotest.(check bool) "cache tier faster" true (small > big);
  Alcotest.(check (float 1e-9)) "cache tier" m.Cost_model.cache_copy_bw small;
  Alcotest.(check bool) "big approaches dram bw" true
    (big < m.Cost_model.dram_copy_bw *. 1.2)

let test_cost_contention () =
  let m = Cost_model.xeon_6130 in
  let solo = Cost_model.contended_bw m ~streams:1 ~bw:9.0 in
  let crowded = Cost_model.contended_bw m ~streams:32 ~bw:9.0 in
  Alcotest.(check (float 1e-9)) "solo unconstrained" 9.0 solo;
  Alcotest.(check (float 1e-6)) "32 streams share the ceiling"
    (m.Cost_model.machine_copy_bw /. 32.0) crowded

let test_cost_presets_sane () =
  List.iter
    (fun (m : Cost_model.t) ->
      Alcotest.(check bool) (m.Cost_model.name ^ " positive costs") true
        (m.Cost_model.pt_entry_ns > 0.0 && m.Cost_model.syscall_ns > 0.0
        && m.Cost_model.dram_copy_bw > 0.0
        && m.Cost_model.cache_copy_bw > m.Cost_model.dram_copy_bw))
    Cost_model.presets

(* --- Clock --- *)

let test_clock () =
  let c = Clock.create () in
  Clock.advance c 10.0;
  Clock.advance c 5.0;
  Alcotest.(check (float 1e-9)) "sum" 15.0 (Clock.now_ns c);
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance: negative delta")
    (fun () -> Clock.advance c (-1.0));
  Clock.reset c;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Clock.now_ns c)

(* --- Machine --- *)

let test_machine_asids () =
  let m = Machine.create ~phys_mib:1 Cost_model.i5_7600 in
  let a = Machine.fresh_asid m and b = Machine.fresh_asid m in
  Alcotest.(check bool) "distinct asids" true (a <> b)

let test_machine_ipi_cost () =
  let m = Machine.create ~ncores:8 ~phys_mib:1 Cost_model.xeon_6130 in
  let cost = Machine.ipi_broadcast_cost m ~from_core:0 in
  Alcotest.(check int) "7 ipis" 7 m.Machine.perf.Perf.ipis_sent;
  Alcotest.(check bool) "cost = latency + acks" true
    (cost
    = m.Machine.cost.Cost_model.ipi_ns
      +. (6.0 *. m.Machine.cost.Cost_model.ipi_ack_ns))

let test_machine_single_core_ipi_free () =
  let m = Machine.create ~ncores:1 ~phys_mib:1 Cost_model.xeon_6130 in
  Alcotest.(check (float 1e-9)) "no remote cores" 0.0
    (Machine.ipi_broadcast_cost m ~from_core:0)

let test_machine_flush_all_cores () =
  let m = Machine.create ~ncores:4 ~phys_mib:1 Cost_model.xeon_6130 in
  (* Seed every core's TLB with the asid then flush everywhere. *)
  Array.iter (fun c -> Tlb.insert c.Machine.tlb ~asid:7 ~vpn:1 ~frame:1) m.Machine.cores;
  ignore (Machine.flush_tlb_all_cores m ~asid:7 ~from_core:0);
  Array.iter
    (fun c ->
      Alcotest.(check int) "invalidated" (-1)
        (Tlb.lookup c.Machine.tlb ~asid:7 ~vpn:1))
    m.Machine.cores

(* --- Address_space --- *)

let machine () = Machine.create ~phys_mib:32 Cost_model.xeon_6130

let test_as_map_rw () =
  let aspace = Address_space.create (machine ()) in
  let va = 1 lsl 30 in
  Address_space.map_range aspace ~va ~pages:4;
  Alcotest.(check int) "mapped" 4 (Address_space.mapped_pages aspace);
  Address_space.write_bytes aspace ~va:(va + 100) ~src:(Bytes.of_string "svagc");
  Alcotest.(check string) "readback" "svagc"
    (Bytes.to_string (Address_space.read_bytes aspace ~va:(va + 100) ~len:5))

let test_as_cross_page_io () =
  let aspace = Address_space.create (machine ()) in
  let va = 1 lsl 30 in
  Address_space.map_range aspace ~va ~pages:2;
  let data = Bytes.init 1000 (fun i -> Char.chr (i mod 256)) in
  let start = va + Addr.page_size - 500 in
  Address_space.write_bytes aspace ~va:start ~src:data;
  Alcotest.(check bytes) "cross-page roundtrip" data
    (Address_space.read_bytes aspace ~va:start ~len:1000)

let test_as_unmapped_errors () =
  let aspace = Address_space.create (machine ()) in
  Alcotest.(check bool) "raises on unmapped read" true
    (try
       ignore (Address_space.read_bytes aspace ~va:4096 ~len:1);
       false
     with Invalid_argument _ -> true)

let test_as_double_map_rejected () =
  let aspace = Address_space.create (machine ()) in
  Address_space.map_range aspace ~va:8192 ~pages:1;
  Alcotest.(check bool) "double map rejected" true
    (try
       Address_space.map_range aspace ~va:8192 ~pages:1;
       false
     with Invalid_argument _ -> true)

let test_as_unmap_frees_frames () =
  let m = machine () in
  let aspace = Address_space.create m in
  Address_space.map_range aspace ~va:4096 ~pages:3;
  let used = Phys_mem.frames_in_use m.Machine.phys in
  Address_space.unmap_range aspace ~va:4096 ~pages:3;
  Alcotest.(check int) "frames returned" (used - 3)
    (Phys_mem.frames_in_use m.Machine.phys)

let test_as_checksum_sensitivity () =
  let aspace = Address_space.create (machine ()) in
  Address_space.map_range aspace ~va:4096 ~pages:1;
  let c0 = Address_space.checksum aspace ~va:4096 ~len:4096 in
  Address_space.write_u8 aspace ~va:5000 1;
  let c1 = Address_space.checksum aspace ~va:4096 ~len:4096 in
  Alcotest.(check bool) "checksum changes" true (c0 <> c1)

let test_as_i64_roundtrip () =
  let aspace = Address_space.create (machine ()) in
  Address_space.map_range aspace ~va:4096 ~pages:3;
  (* Straddle the page boundary on purpose. *)
  Address_space.write_i64 aspace ~va:8190 0x1122334455667788L;
  Alcotest.(check int64) "i64 roundtrip" 0x1122334455667788L
    (Address_space.read_i64 aspace ~va:8190);
  Alcotest.(check int64) "straddling peek" 0x1122334455667788L
    (Address_space.peek_i64 aspace ~va:8190);
  (* Inside one page (the last whole slot of the first page): the in-place
     path must lay the bytes out little-endian, as the chunked one does. *)
  Address_space.write_i64 aspace ~va:8184 0x0807060504030201L;
  Alcotest.(check string) "little-endian bytes" "\001\002\003\004\005\006\007\008"
    (Bytes.to_string (Address_space.read_bytes aspace ~va:8184 ~len:8));
  Alcotest.(check int64) "in-page read" 0x0807060504030201L
    (Address_space.read_i64 aspace ~va:8184);
  Alcotest.(check int64) "in-page peek" 0x0807060504030201L
    (Address_space.peek_i64 aspace ~va:8184);
  Alcotest.(check int64) "peek of a never-written page is zero" 0L
    (Address_space.peek_i64 aspace ~va:(12288 + 64))

let test_as_reads_never_materialize () =
  let m = machine () in
  let aspace = Address_space.create m in
  Address_space.map_range aspace ~va:4096 ~pages:2;
  let unbacked va =
    match Address_space.translate aspace ~va with
    | Some (frame, _) -> Phys_mem.frame_contents m.Machine.phys frame = None
    | None -> Alcotest.fail "page not present"
  in
  Alcotest.(check int) "read_u8" 0 (Address_space.read_u8 aspace ~va:4100);
  Alcotest.(check int64) "read_i64" 0L (Address_space.read_i64 aspace ~va:4200);
  Alcotest.(check int64) "read_i64 across pages" 0L
    (Address_space.read_i64 aspace ~va:(8192 - 3));
  Alcotest.(check string) "read_bytes" (String.make 4096 '\000')
    (Bytes.to_string (Address_space.read_bytes aspace ~va:6000 ~len:4096));
  Alcotest.(check bool) "both pages still unbacked" true
    (unbacked 4096 && unbacked 8192);
  Address_space.write_u8 aspace ~va:8192 1;
  Alcotest.(check bool) "a write materializes" false (unbacked 8192)

(* The staged copy owns its scratch: once the machine's buffer and flags
   have grown, a copy over written and never-written pages, aligned or
   not, allocates nothing. *)
let test_as_warm_copy_allocates_nothing () =
  let m = machine () in
  let aspace = Address_space.create m in
  Address_space.map_range aspace ~va:4096 ~pages:24;
  for i = 0 to 3 do
    Address_space.write_u8 aspace ~va:(4096 + (2 * i * 4096) + 100) (i + 1)
  done;
  let copies () =
    Address_space.copy aspace ~src:4096 ~dst:(4096 * 9) ~len:(4096 * 8);
    Address_space.copy aspace ~src:(4096 + 100) ~dst:((4096 * 17) + 7) ~len:(4096 * 6)
  in
  copies ();
  let w0 = Gc.minor_words () in
  copies ();
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "warm copies allocate nothing" 0. (w1 -. w0);
  Alcotest.(check int) "an aligned stamp moved" 2
    (Address_space.read_u8 aspace ~va:((4096 * 11) + 100));
  Alcotest.(check int) "an unaligned stamp moved" 3
    (Address_space.read_u8 aspace ~va:((4096 * 17) + 7 + (4 * 4096)))

let test_as_touch_counts () =
  let m = machine () in
  let aspace = Address_space.create m in
  Address_space.map_range aspace ~va:4096 ~pages:1;
  Address_space.touch aspace ~core:0 ~va:4096;
  Address_space.touch aspace ~core:0 ~va:4096;
  let st = Tlb.stats (Machine.core m 0).Machine.tlb in
  Alcotest.(check int) "tlb: one miss then one hit" 1 st.Tlb.misses;
  Alcotest.(check int) "tlb hit" 1 st.Tlb.hits;
  Alcotest.(check int) "llc accesses" 2 (Cache_sim.stats m.Machine.llc).Cache_sim.accesses

let prop_as_fill_checksum_deterministic =
  qtest ~count:40 "address space: same writes, same checksum"
    QCheck.(int_range 1 6)
    (fun pages ->
      let mk () =
        let aspace = Address_space.create (machine ()) in
        Address_space.map_range aspace ~va:4096 ~pages;
        Address_space.fill aspace ~va:4096 ~len:(pages * 4096) 'x';
        Address_space.checksum aspace ~va:4096 ~len:(pages * 4096)
      in
      mk () = mk ())

(* --- Perf --- *)

let bump_some_counters p =
  p.Perf.syscalls <- 3;
  p.Perf.swapva_calls <- 2;
  p.Perf.bytes_copied <- 4096;
  p.Perf.ipis_sent <- 7;
  p.Perf.alloc_bytes <- 1 lsl 20

let test_perf_copy_is_snapshot () =
  let p = Perf.create () in
  bump_some_counters p;
  let snap = Perf.copy p in
  p.Perf.syscalls <- 100;
  p.Perf.bytes_copied <- 0;
  Alcotest.(check int) "copy unaffected by later writes" 3 snap.Perf.syscalls;
  Alcotest.(check int) "copy keeps bytes" 4096 snap.Perf.bytes_copied;
  Alcotest.(check bool) "copy equals original field-wise" true
    (Perf.to_assoc snap
    = [
        ("syscalls", 3); ("swapva_calls", 2); ("memmove_calls", 0);
        ("ptes_swapped", 0); ("pt_walks", 0); ("pmd_cache_hits", 0);
        ("leaf_runs", 0); ("runs_coalesced", 0); ("pmd_leaf_swaps", 0);
        ("bytes_copied", 4096); ("bytes_remapped", 0); ("tlb_flush_local", 0);
        ("tlb_flush_page", 0); ("tlb_flush_all", 0); ("ipis_sent", 7);
        ("ipis_lost", 0);
        ("shootdown_broadcasts", 0); ("pins", 0); ("gc_cycles", 0);
        ("swap_retries", 0); ("swap_fallbacks", 0); ("alloc_waste_bytes", 0);
        ("alloc_bytes", 1 lsl 20);
        ("pages_swapped_out", 0); ("pages_swapped_in", 0); ("major_faults", 0);
        ("reclaim_scans", 0); ("kswapd_wakes", 0); ("swap_io_errors", 0);
        ("tier_demotions", 0); ("tier_promotions", 0);
        ("admission_rejects", 0); ("sched_scheduled", 0);
        ("sched_dispatched", 0); ("sched_cancelled", 0);
      ])

let test_perf_reset () =
  let p = Perf.create () in
  bump_some_counters p;
  Perf.reset p;
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " zeroed") 0 v)
    (Perf.to_assoc p)

let test_perf_diff_roundtrip () =
  let p = Perf.create () in
  bump_some_counters p;
  let before = Perf.copy p in
  p.Perf.syscalls <- p.Perf.syscalls + 10;
  p.Perf.ipis_sent <- p.Perf.ipis_sent + 1;
  let d = Perf.diff ~after:p ~before in
  Alcotest.(check int) "syscall delta" 10 d.Perf.syscalls;
  Alcotest.(check int) "ipi delta" 1 d.Perf.ipis_sent;
  Alcotest.(check int) "untouched delta" 0 d.Perf.bytes_copied;
  (* before + diff = after, field by field *)
  List.iter2
    (fun (name, b) ((_, d), (_, a)) ->
      Alcotest.(check int) (name ^ " recomposes") a (b + d))
    (Perf.to_assoc before)
    (List.combine (Perf.to_assoc d) (Perf.to_assoc p))

let test_perf_diff_self_is_zero () =
  let p = Perf.create () in
  bump_some_counters p;
  let d = Perf.diff ~after:p ~before:p in
  List.iter
    (fun (name, v) -> Alcotest.(check int) (name ^ " self-diff") 0 v)
    (Perf.to_assoc d)

let test_perf_to_assoc_covers_all_counters () =
  let names = List.map fst (Perf.to_assoc (Perf.create ())) in
  Alcotest.(check int) "35 counters" 35 (List.length names);
  Alcotest.(check int) "no duplicate names" 35
    (List.length (List.sort_uniq compare names))

let () =
  Alcotest.run "svagc_vmem"
    [
      ( "addr",
        [
          Alcotest.test_case "constants" `Quick test_addr_constants;
          Alcotest.test_case "align" `Quick test_addr_align;
          Alcotest.test_case "pages_spanned" `Quick test_addr_pages_spanned;
          Alcotest.test_case "indices" `Quick test_addr_indices;
          prop_addr_roundtrip;
          prop_addr_align_up_invariants;
        ] );
      ("pte", [ Alcotest.test_case "encode/decode" `Quick test_pte ]);
      ( "phys_mem",
        [
          Alcotest.test_case "alloc/free" `Quick test_phys_alloc_free;
          Alcotest.test_case "out of frames" `Quick test_phys_out_of_frames;
          Alcotest.test_case "read/write" `Quick test_phys_read_write;
          Alcotest.test_case "blit" `Quick test_phys_blit;
          Alcotest.test_case "range check" `Quick test_phys_range_check;
          Alcotest.test_case "zero_frame" `Quick test_phys_zero_frame;
          Alcotest.test_case "release/install move payloads" `Quick
            test_phys_release_install;
        ] );
      ( "page_table",
        [
          Alcotest.test_case "get/set/translate" `Quick test_pt_get_set;
          Alcotest.test_case "leaf sharing" `Quick test_pt_leaf_sharing;
          Alcotest.test_case "iter mapped" `Quick test_pt_iter_mapped;
          Alcotest.test_case "walk allocates nothing" `Quick
            test_pt_walk_allocates_nothing;
          prop_pt_model;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "flush asid" `Quick test_tlb_flush_asid;
          Alcotest.test_case "flush page" `Quick test_tlb_flush_page;
          Alcotest.test_case "LRU eviction" `Quick test_tlb_capacity_eviction;
          Alcotest.test_case "occupancy" `Quick test_tlb_occupancy;
          Alcotest.test_case "bad geometry rejected" `Quick test_tlb_rejects_bad_geometry;
        ] );
      ( "cache_sim",
        [
          Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
          Alcotest.test_case "capacity eviction" `Quick test_cache_capacity_eviction;
          Alcotest.test_case "access range" `Quick test_cache_access_range;
          Alcotest.test_case "miss rate" `Quick test_cache_miss_rate;
          Alcotest.test_case "bad geometry rejected" `Quick
            test_cache_rejects_bad_geometry;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "memmove tiers" `Quick test_cost_memmove_tiers;
          Alcotest.test_case "contention" `Quick test_cost_contention;
          Alcotest.test_case "presets sane" `Quick test_cost_presets_sane;
        ] );
      ("clock", [ Alcotest.test_case "advance/reset" `Quick test_clock ]);
      ( "machine",
        [
          Alcotest.test_case "asids" `Quick test_machine_asids;
          Alcotest.test_case "ipi broadcast cost" `Quick test_machine_ipi_cost;
          Alcotest.test_case "single-core ipi free" `Quick test_machine_single_core_ipi_free;
          Alcotest.test_case "flush all cores" `Quick test_machine_flush_all_cores;
        ] );
      ( "address_space",
        [
          Alcotest.test_case "map/read/write" `Quick test_as_map_rw;
          Alcotest.test_case "cross-page io" `Quick test_as_cross_page_io;
          Alcotest.test_case "unmapped errors" `Quick test_as_unmapped_errors;
          Alcotest.test_case "double map rejected" `Quick test_as_double_map_rejected;
          Alcotest.test_case "unmap frees frames" `Quick test_as_unmap_frees_frames;
          Alcotest.test_case "checksum sensitivity" `Quick test_as_checksum_sensitivity;
          Alcotest.test_case "i64 roundtrip" `Quick test_as_i64_roundtrip;
          Alcotest.test_case "touch counts" `Quick test_as_touch_counts;
          Alcotest.test_case "reads never materialize" `Quick
            test_as_reads_never_materialize;
          Alcotest.test_case "warm copy allocates nothing" `Quick
            test_as_warm_copy_allocates_nothing;
          prop_as_fill_checksum_deterministic;
        ] );
      ( "perf",
        [
          Alcotest.test_case "copy is a snapshot" `Quick test_perf_copy_is_snapshot;
          Alcotest.test_case "reset zeroes" `Quick test_perf_reset;
          Alcotest.test_case "diff round-trip" `Quick test_perf_diff_roundtrip;
          Alcotest.test_case "self-diff is zero" `Quick test_perf_diff_self_is_zero;
          Alcotest.test_case "to_assoc covers counters" `Quick
            test_perf_to_assoc_covers_all_counters;
        ] );
    ]
