(* Differential tests of the flat LLC and TLB models against the
   array-of-arrays references in [Ref_models]: random streams over small
   geometries (so sets collide, ways evict and flushes leave holes) must
   give the same result from every call and the same stats, occupancy and
   valid-entry sequence.  The LLC is also driven by hit-heavy streams and
   through the batched [Cache_sim.access_range].  Then the page-batched
   [Address_space.touch_range] against a per-line [touch] loop, with the
   reclaim plane off and on. *)

open Svagc_vmem
module Fault_handler = Svagc_kernel.Fault_handler

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let fail fmt = Format.kasprintf QCheck.Test.fail_report fmt

(* --- Cache_sim --- *)

(* (log2 line bytes, ways, log2 sets): 16 to 128-byte lines, 1 to 16 ways
   (the default 16, and non-powers of two such as 3, 5 and 12), 1 to 8
   sets. *)
let cache_geometry = QCheck.(triple (int_range 4 7) (int_range 1 16) (int_range 0 3))

let cache_pair (lshift, ways, sshift) =
  let line_bytes = 1 lsl lshift and n_sets = 1 lsl sshift in
  let size_bytes = line_bytes * ways * n_sets in
  ( Cache_sim.create ~size_bytes ~line_bytes ~ways (),
    Ref_models.Cache.create ~size_bytes ~line_bytes ~ways,
    size_bytes )

let cache_stats_agree flat reference =
  let st = Cache_sim.stats flat in
  st.Cache_sim.accesses = reference.Ref_models.Cache.accesses
  && st.Cache_sim.misses = reference.Ref_models.Cache.misses

(* Feeds [addrs] to both models one access at a time and checks every
   hit/miss, then the stats. *)
let cache_stream_agrees flat reference addrs =
  List.iteri
    (fun k addr ->
      let misses = (Cache_sim.stats flat).Cache_sim.misses in
      Cache_sim.access flat ~addr;
      let flat_hit = (Cache_sim.stats flat).Cache_sim.misses = misses in
      let ref_hit = Ref_models.Cache.access reference ~addr in
      if flat_hit <> ref_hit then
        fail "access %d (addr %d): flat hit=%b, reference hit=%b" k addr
          flat_hit ref_hit)
    addrs;
  cache_stats_agree flat reference

(* A stream of raw addresses, folded into three cache capacities so every
   set sees more distinct lines than it has ways; bit 0 of the raw value
   moves the address far up to exercise large tags. *)
let prop_cache_matches_reference =
  qtest "cache_sim: every access and the stats match the reference"
    QCheck.(pair cache_geometry (list_of_size Gen.(0 -- 400) (int_bound 1_000_000)))
    (fun (geometry, raw) ->
      let flat, reference, size_bytes = cache_pair geometry in
      cache_stream_agrees flat reference
        (List.map (fun r -> (r mod (3 * size_bytes)) + ((r land 1) lsl 40)) raw))

(* Each set cycles through a working set of ways - 1, ways or ways + 1
   distinct lines, picked at random: most accesses hit, at every recency
   depth, and with ways + 1 lines the misses evict and the ring wraps. *)
let prop_cache_hit_heavy =
  qtest "cache_sim: hit-heavy working sets match the reference"
    QCheck.(
      triple cache_geometry (int_range (-1) 1)
        (list_of_size Gen.(0 -- 600) (int_bound 1_000_000)))
    (fun (((lshift, ways, sshift) as geometry), extra, raw) ->
      let flat, reference, _ = cache_pair geometry in
      let n_sets = 1 lsl sshift and lines = max 1 (ways + extra) in
      cache_stream_agrees flat reference
        (List.map
           (fun r ->
             let set = r mod n_sets and tag = r / n_sets mod lines in
             (((tag * n_sets) + set) lsl lshift) + (r land ((1 lsl lshift) - 1)))
           raw))

(* Random [(addr, len)] ranges: each [access_range] must add one access
   per line and as many misses as the reference's per-line accesses, and
   the final stats must agree. *)
let prop_cache_access_range =
  qtest "cache_sim: access_range matches per-line reference accesses"
    QCheck.(
      pair cache_geometry
        (list_of_size Gen.(0 -- 60) (pair (int_bound 1_000_000) (int_bound 600))))
    (fun (((lshift, _, _) as geometry), ranges) ->
      let flat, reference, size_bytes = cache_pair geometry in
      List.iteri
        (fun k (r, len) ->
          let addr = r mod (3 * size_bytes) in
          let st = Cache_sim.stats flat in
          let accesses = st.Cache_sim.accesses and misses = st.Cache_sim.misses in
          Cache_sim.access_range flat ~addr ~len;
          let lines = ref 0 and ref_misses = ref 0 in
          if len > 0 then
            for line = addr lsr lshift to (addr + len - 1) lsr lshift do
              incr lines;
              if not (Ref_models.Cache.access reference ~addr:(line lsl lshift)) then
                incr ref_misses
            done;
          let st = Cache_sim.stats flat in
          if
            st.Cache_sim.accesses - accesses <> !lines
            || st.Cache_sim.misses - misses <> !ref_misses
          then
            fail "range %d (addr %d, len %d): flat %d accesses/%d misses, reference %d/%d"
              k addr len
              (st.Cache_sim.accesses - accesses)
              (st.Cache_sim.misses - misses)
              !lines !ref_misses)
        ranges;
      cache_stats_agree flat reference)

(* --- Tlb --- *)

type tlb_op =
  | Lookup of int * int
  | Insert of int * int * int
  | Repeat of int * int * int
  | Flush_all
  | Flush_asid of int
  | Flush_page of int * int

let pp_tlb_op = function
  | Lookup (a, v) -> Printf.sprintf "lookup %d/%d" a v
  | Insert (a, v, f) -> Printf.sprintf "insert %d/%d->%d" a v f
  | Repeat (a, v, n) -> Printf.sprintf "repeat_hits %d/%d x%d" a v n
  | Flush_all -> "flush_all"
  | Flush_asid a -> Printf.sprintf "flush_asid %d" a
  | Flush_page (a, v) -> Printf.sprintf "flush_page %d/%d" a v

(* Three asids over twelve vpns: enough to fill and evict sets of up to
   four ways.  Lookups and inserts dominate so sets fill between flushes. *)
let gen_tlb_op =
  let open QCheck.Gen in
  let asid = 0 -- 2 and vpn = 0 -- 11 in
  frequency
    [
      (6, map2 (fun a v -> Lookup (a, v)) asid vpn);
      (6, map3 (fun a v f -> Insert (a, v, f)) asid vpn (0 -- 1000));
      (2, map3 (fun a v n -> Repeat (a, v, n)) asid vpn (0 -- 5));
      (1, return Flush_all);
      (1, map (fun a -> Flush_asid a) asid);
      (2, map2 (fun a v -> Flush_page (a, v)) asid vpn);
    ]

let arb_tlb_stream =
  QCheck.make
    ~print:(fun ((sets, ways), ops) ->
      Printf.sprintf "%d sets x %d ways: %s" sets ways
        (String.concat "; " (List.map pp_tlb_op ops)))
    QCheck.Gen.(pair (pair (1 -- 5) (1 -- 4)) (list_size (0 -- 300) gen_tlb_op))

let flat_valid tlb =
  let out = ref [] in
  Tlb.iter_valid tlb (fun ~asid ~vpn ~frame -> out := (asid, vpn, frame) :: !out);
  List.rev !out

let tlb_stats_agree flat (r : Ref_models.Tlb.t) =
  let st = Tlb.stats flat in
  st.Tlb.hits = r.hits
  && st.Tlb.misses = r.misses
  && st.Tlb.flushes_full = r.flushes_full
  && st.Tlb.flushes_asid = r.flushes_asid
  && st.Tlb.flushes_page = r.flushes_page

(* Inserts honour the fill contract (never for a resident pair) and
   [repeat_hits] its precondition (resident pair); a skipped op still
   compares state. *)
let prop_tlb_matches_reference =
  qtest "tlb: every call, the stats, occupancy and valid entries match the reference"
    arb_tlb_stream (fun ((sets, ways), ops) ->
      let entries = sets * ways in
      let flat = Tlb.create ~entries ~ways () in
      let reference = Ref_models.Tlb.create ~entries ~ways in
      let resident a v =
        List.exists (fun (a', v', _) -> a = a' && v = v') (Ref_models.Tlb.valid reference)
      in
      List.iteri
        (fun k op ->
          (match op with
          | Lookup (asid, vpn) ->
            let got = Tlb.lookup flat ~asid ~vpn in
            let want = Option.value ~default:(-1) (Ref_models.Tlb.lookup reference ~asid ~vpn) in
            if got <> want then fail "op %d (%s): flat %d, reference %d" k (pp_tlb_op op) got want
          | Insert (asid, vpn, frame) ->
            if not (resident asid vpn) then begin
              Tlb.insert flat ~asid ~vpn ~frame;
              Ref_models.Tlb.insert reference ~asid ~vpn ~frame
            end
          | Repeat (asid, vpn, n) ->
            if resident asid vpn then begin
              Tlb.repeat_hits flat ~asid ~vpn ~n;
              for _ = 1 to n do
                ignore (Ref_models.Tlb.lookup reference ~asid ~vpn)
              done
            end
          | Flush_all ->
            Tlb.flush_all flat;
            Ref_models.Tlb.flush_all reference
          | Flush_asid asid ->
            Tlb.flush_asid flat ~asid;
            Ref_models.Tlb.flush_asid reference ~asid
          | Flush_page (asid, vpn) ->
            Tlb.flush_page flat ~asid ~vpn;
            Ref_models.Tlb.flush_page reference ~asid ~vpn);
          if not (tlb_stats_agree flat reference) then
            fail "op %d (%s): stats diverge" k (pp_tlb_op op);
          if Tlb.occupied flat <> Ref_models.Tlb.occupied reference then
            fail "op %d (%s): occupancy %d vs %d" k (pp_tlb_op op) (Tlb.occupied flat)
              (Ref_models.Tlb.occupied reference);
          if flat_valid flat <> Ref_models.Tlb.valid reference then
            fail "op %d (%s): valid entries diverge" k (pp_tlb_op op))
        ops;
      true)

let test_repeat_hits_needs_resident () =
  let tlb = Tlb.create () in
  Tlb.repeat_hits tlb ~asid:1 ~vpn:3 ~n:0;
  Alcotest.check_raises "not resident"
    (Invalid_argument "Tlb.repeat_hits: asid 1 vpn 3 is not resident") (fun () ->
      Tlb.repeat_hits tlb ~asid:1 ~vpn:3 ~n:2)

(* --- page-batched touch_range vs a per-line touch loop --- *)

let base = 1 lsl 32
let pages = 24

(* Two identical machines: [pages] mapped and filled with page-distinct
   bytes; under pressure the reclaim plane holds a third of them resident,
   so touches demand-fault and evict. *)
let touch_fixture ~pressured =
  let machine = Machine.create ~ncores:2 ~phys_mib:16 Cost_model.xeon_6130 in
  if pressured then ignore (Fault_handler.attach machine ~limit_frames:(pages / 3) ());
  let aspace = Address_space.create machine in
  Address_space.map_range aspace ~va:base ~pages;
  for p = 0 to pages - 1 do
    Address_space.fill aspace ~va:(base + (p * Addr.page_size)) ~len:Addr.page_size
      (Char.chr (p + 1))
  done;
  (machine, aspace)

(* The per-line definition: {!Address_space.touch} at every line start
   of a non-empty range. *)
let touch_per_line aspace ~core ~va ~len =
  let line = Cache_sim.line_bytes (Address_space.machine aspace).Machine.llc in
  let pos = ref (va - (va mod line)) in
  while len > 0 && !pos < va + len do
    Address_space.touch aspace ~core ~va:!pos;
    pos := !pos + line
  done

let snapshot machine aspace =
  let tlb core = (Machine.core machine core).Machine.tlb in
  let llc = Cache_sim.stats machine.Machine.llc in
  ( List.map (fun c -> (Tlb.stats (tlb c), flat_valid (tlb c))) [ 0; 1 ],
    (llc.Cache_sim.accesses, llc.Cache_sim.misses),
    Perf.to_assoc machine.Machine.perf,
    Page_table.swapped_pages (Address_space.page_table aspace),
    Address_space.checksum aspace ~va:base ~len:(pages * Addr.page_size) )

let prop_touch_range_matches_per_line ~pressured =
  qtest ~count:60
    (Printf.sprintf "touch_range: same state as a per-line touch loop (reclaim %s)"
       (if pressured then "on" else "off"))
    QCheck.(list_of_size Gen.(1 -- 40) (triple (int_bound 1) (int_bound 1_000_000) (int_bound 3)))
    (fun ranges ->
      let m_batch, a_batch = touch_fixture ~pressured in
      let m_line, a_line = touch_fixture ~pressured in
      let span = pages * Addr.page_size in
      List.iteri
        (fun k (core, r, len_pages) ->
          let off = r mod span in
          let len = min (span - off) ((len_pages * Addr.page_size) + (r mod 997)) in
          let va = base + off in
          Address_space.touch_range a_batch ~core ~va ~len;
          touch_per_line a_line ~core ~va ~len;
          if snapshot m_batch a_batch <> snapshot m_line a_line then
            fail "range %d (core %d, va +%d, len %d): state diverges" k core off len)
        ranges;
      (* Mapping and filling alone overflow the limit, so a pressured run
         must have demand-faulted. *)
      (not pressured) || m_batch.Machine.perf.Perf.major_faults > 0)

let () =
  Alcotest.run "models"
    [
      ( "cache_sim reference",
        [ prop_cache_matches_reference; prop_cache_hit_heavy; prop_cache_access_range ] );
      ( "tlb reference",
        [
          prop_tlb_matches_reference;
          Alcotest.test_case "repeat_hits needs a resident page" `Quick
            test_repeat_hits_needs_resident;
        ] );
      ( "touch_range batching",
        [
          prop_touch_range_matches_per_line ~pressured:false;
          prop_touch_range_matches_per_line ~pressured:true;
        ] );
    ]
