(* Tests for svagc_fleet: admission decisions, FIFO fairness and the
   admission_rejects counter, also at 10k tenants; tiered swap-device
   demotion/promotion with payload integrity across the migration;
   cgroup hard-limit enforcement on the mapping and faulting paths;
   soft-limit-first victim selection (an under-soft tenant's pages
   survive kswapd while a hog is over); equivalence of an oversized near
   tier with the default flat device; bit-determinism of the fleet
   driver (tier placement, counters and percentiles replay); and a fleet
   run under the shadow oracle's cgroup/tier conservation laws. *)

open Svagc_vmem
module Process = Svagc_kernel.Process
module Fault_handler = Svagc_kernel.Fault_handler
module Reclaim = Svagc_reclaim.Reclaim
module Swap_tier = Svagc_fleet.Swap_tier
module Cgroup = Svagc_fleet.Cgroup
module Admission = Svagc_fleet.Admission
module Fleet = Svagc_fleet.Fleet
module Histogram = Svagc_util.Histogram
module Exp_common = Svagc_experiments.Exp_common

let machine ?(ncores = 4) ?(phys_mib = 128) () =
  Machine.create ~ncores ~phys_mib Cost_model.xeon_6130

let base = 1 lsl 32

(* --- Admission --- *)

let test_admission_decisions () =
  let m = machine () in
  let adm =
    Admission.create m ~capacity_frames:100 ~overcommit:1.5 ~queue_limit:2 ()
  in
  Alcotest.(check int) "budget" 150 (Admission.budget_frames adm);
  Alcotest.(check bool) "first fits" true
    (Admission.request adm ~tenant:0 ~frames:100 = Admission.Admitted);
  Alcotest.(check bool) "oversized can never fit" true
    (Admission.request adm ~tenant:1 ~frames:151 = Admission.Rejected);
  Alcotest.(check bool) "next does not fit, queues" true
    (Admission.request adm ~tenant:2 ~frames:60 = Admission.Queued);
  (* FIFO fairness: tenant 3 would fit right now (50 frames spare) but
     must queue behind tenant 2. *)
  Alcotest.(check bool) "newcomer queues behind waiter" true
    (Admission.request adm ~tenant:3 ~frames:40 = Admission.Queued);
  Alcotest.(check bool) "queue full rejects" true
    (Admission.request adm ~tenant:4 ~frames:10 = Admission.Rejected);
  Alcotest.(check int) "admission_rejects counter" 2
    m.Machine.perf.Perf.admission_rejects;
  Alcotest.(check int) "committed" 100 (Admission.committed_frames adm);
  Alcotest.(check int) "queue length" 2 (Admission.queue_length adm);
  Admission.release adm ~frames:100;
  Alcotest.(check (list (pair int int)))
    "release drains the queue in FIFO order"
    [ (2, 60); (3, 40) ]
    (Admission.take_ready adm);
  Alcotest.(check int) "committed after drain" 100
    (Admission.committed_frames adm);
  Alcotest.(check int) "admitted total" 3 (Admission.admitted adm);
  Alcotest.(check int) "rejected total" 2 (Admission.rejected adm)

(* Admission math at fleet scale. *)
let test_admission_10k () =
  let m = machine () in
  let frames = 16 in
  let adm =
    Admission.create m
      ~capacity_frames:(10_000 * frames)
      ~overcommit:1.0 ~queue_limit:24 ()
  in
  let admitted = ref 0 and queued = ref 0 and rejected = ref 0 in
  for tenant = 0 to 10_499 do
    match Admission.request adm ~tenant ~frames with
    | Admission.Admitted -> incr admitted
    | Admission.Queued -> incr queued
    | Admission.Rejected -> incr rejected
  done;
  Alcotest.(check int) "admitted main wave" 10_000 !admitted;
  Alcotest.(check int) "queued" 24 !queued;
  Alcotest.(check int) "rejected over full queue" 476 !rejected;
  Alcotest.(check int) "committed = budget" (10_000 * frames)
    (Admission.committed_frames adm);
  (* Departures free exactly enough for the whole queue: it must drain
     FIFO, oldest waiter first. *)
  Admission.release adm ~frames:(24 * frames);
  let ready = Admission.take_ready adm in
  Alcotest.(check int) "queue drains fully" 24 (List.length ready);
  Alcotest.(check (list int)) "FIFO drain order"
    (List.init 24 (fun i -> 10_000 + i))
    (List.map fst ready);
  Alcotest.(check int) "admitted total" 10_024 (Admission.admitted adm);
  Alcotest.(check int) "rejected total" 476 (Admission.rejected adm);
  Alcotest.(check int) "rejects counted on the machine" 476
    m.Machine.perf.Perf.admission_rejects

(* --- Swap_tier --- *)

let test_tier_demote_promote () =
  let m = machine () in
  let tier = Swap_tier.create m ~near_slots:2 ~far_cost_mult:3.0 () in
  let dev = Swap_tier.iface tier in
  let out_empty = dev.Reclaim.d_out_ns () in
  let payload i = Bytes.make Addr.page_size (Char.chr (Char.code 'A' + i)) in
  let slots =
    List.init 3 (fun i ->
        let s = dev.Reclaim.d_alloc_slot () in
        dev.Reclaim.d_write ~slot:s (Some (payload i));
        s)
  in
  (* The third allocation found the near tier full and demoted the
     coldest slot (the first) to far. *)
  Alcotest.(check (pair int int)) "near full, coldest demoted" (2, 1)
    (Swap_tier.stats tier);
  Alcotest.(check int) "demotion counted" 1 m.Machine.perf.Perf.tier_demotions;
  Alcotest.(check bool) "full near tier makes swap-out dearer" true
    (dev.Reclaim.d_out_ns () > out_empty);
  let s0 = List.nth slots 0 and s1 = List.nth slots 1 in
  (* peek is the oracle path: payload visible, no promotion side effect. *)
  (match Swap_tier.peek tier ~slot:s0 with
  | Some b -> Alcotest.(check char) "peek sees payload" 'A' (Bytes.get b 0)
  | None -> Alcotest.fail "peek lost the demoted payload");
  Alcotest.(check int) "peek is not a promotion" 0
    m.Machine.perf.Perf.tier_promotions;
  Alcotest.(check bool) "far slot reads slower" true
    (dev.Reclaim.d_in_ns ~slot:s0 > dev.Reclaim.d_in_ns ~slot:s1);
  (* A demand-fault take of the far slot is a promotion that frees the
     slot, and the payload survived the near->far migration
     byte-for-byte. *)
  (match dev.Reclaim.d_take ~slot:s0 with
  | Some b ->
    Alcotest.(check bytes) "payload intact across demotion" (payload 0) b
  | None -> Alcotest.fail "take lost the demoted payload");
  Alcotest.(check int) "promotion counted" 1
    m.Machine.perf.Perf.tier_promotions;
  Alcotest.(check bool) "take frees the slot" false
    (Swap_tier.allocated tier ~slot:s0);
  (* Taking a near slot is an ordinary swap-in, not a promotion. *)
  (match dev.Reclaim.d_take ~slot:s1 with
  | Some b -> Alcotest.(check bytes) "near payload intact" (payload 1) b
  | None -> Alcotest.fail "take lost the near payload");
  Alcotest.(check int) "near take is not a promotion" 1
    m.Machine.perf.Perf.tier_promotions;
  dev.Reclaim.d_free_slot (List.nth slots 2);
  Alcotest.(check int) "no slot leak" 0 (Swap_tier.slots_in_use tier);
  Alcotest.(check (pair int int)) "both tiers empty" (0, 0)
    (Swap_tier.stats tier)

(* Ownership across the tiers: A's buffer moves near -> far while its
   old frame serves B, then comes back by promotion, untouched by B. *)
let test_tier_no_aliasing () =
  let m, a, b =
    Helpers.reclaim_alias_scenario
      ~dev_of:(fun m -> Swap_tier.iface (Swap_tier.create m ~near_slots:1 ()))
      ()
  in
  Alcotest.(check bytes) "A intact after demotion, reuse and promotion"
    (Bytes.make Addr.page_size 'a') a;
  Alcotest.(check bytes) "B intact" (Bytes.make Addr.page_size 'b') b;
  Alcotest.(check bool) "A was demoted" true
    (m.Machine.perf.Perf.tier_demotions > 0);
  (* A's fault is the only one, and it promoted a far slot. *)
  Alcotest.(check (pair int int)) "A came back by promotion" (1, 1)
    (m.Machine.perf.Perf.major_faults, m.Machine.perf.Perf.tier_promotions)

(* --- Cgroup enforcement through the kernel --- *)

let test_cgroup_hard_limit () =
  let m = machine () in
  let cg = Cgroup.create () in
  ignore
    (Fault_handler.attach m ~limit_frames:1000 ~cgroup:(Cgroup.iface cg) ());
  let proc = Process.create m in
  let aspace = Process.aspace proc in
  let asid = Address_space.asid aspace in
  Cgroup.set_limits cg ~asid ~soft:2 ~hard:4;
  Address_space.map_range aspace ~va:base ~pages:8;
  Alcotest.(check bool) "resident capped at hard" true
    (Cgroup.resident cg ~asid <= 4);
  Alcotest.(check int) "no excess after enforcement" 0
    (Cgroup.excess cg ~asid);
  Alcotest.(check int) "evicted pages went to swap"
    (8 - Cgroup.resident cg ~asid)
    m.Machine.perf.Perf.pages_swapped_out;
  (* Faulting an evicted page back in re-enforces the limit: residency
     never exceeds hard even transiently after the fault. *)
  ignore (Address_space.read_bytes aspace ~va:base ~len:1);
  Alcotest.(check bool) "still capped after fault-in" true
    (Cgroup.resident cg ~asid <= 4);
  Alcotest.(check bool) "the touch was a major fault" true
    (m.Machine.perf.Perf.major_faults >= 1)

let test_soft_limit_first () =
  let m = machine () in
  let cg = Cgroup.create () in
  ignore
    (Fault_handler.attach m ~limit_frames:12 ~cgroup:(Cgroup.iface cg) ());
  let pa = Process.create m and pb = Process.create m in
  let aa = Process.aspace pa and ab = Process.aspace pb in
  let asid_a = Address_space.asid aa and asid_b = Address_space.asid ab in
  Cgroup.set_limits cg ~asid:asid_a ~soft:2 ~hard:100 (* the over-soft hog *);
  Cgroup.set_limits cg ~asid:asid_b ~soft:100 ~hard:100 (* well-behaved *);
  (* B's pages are mapped first, so without soft-limit-first selection
     they would be the coldest — and the first evicted. *)
  Address_space.map_range ab ~va:base ~pages:4;
  Address_space.map_range aa ~va:base ~pages:10;
  Alcotest.(check bool) "hog is over its soft limit" true
    (Cgroup.prefer cg ~asid:asid_a);
  Alcotest.(check bool) "some eviction happened" true
    (m.Machine.perf.Perf.pages_swapped_out > 0);
  Alcotest.(check int) "under-soft tenant's pages spared" 4
    (Cgroup.resident cg ~asid:asid_b);
  Alcotest.(check bool) "hog paid the eviction" true
    (Cgroup.resident cg ~asid:asid_a < 10)

(* --- flat-device equivalence --- *)

(* Pressure churn (map 2x the limit, then touch everything once) with an
   optional device; returns the machine's full counter set plus the
   accumulated reclaim cost. *)
let pressure_counters ~dev_of =
  let m = machine () in
  let dev = dev_of m in
  ignore (Fault_handler.attach m ~limit_frames:48 ?dev ());
  let proc = Process.create m in
  let aspace = Process.aspace proc in
  Address_space.map_range aspace ~va:base ~pages:96;
  for i = 0 to 95 do
    ignore
      (Address_space.read_bytes aspace
         ~va:(base + (i * Addr.page_size))
         ~len:1)
  done;
  let drained =
    match m.Machine.reclaim with
    | Some r -> r.Machine.ri_drain_ns ()
    | None -> 0.0
  in
  (Perf.to_assoc m.Machine.perf, drained)

let test_oversized_near_tier_is_flat () =
  let flat, flat_ns = pressure_counters ~dev_of:(fun _ -> None) in
  let tiered, tiered_ns =
    pressure_counters ~dev_of:(fun m ->
        Some (Swap_tier.iface (Swap_tier.create m ~near_slots:1_000_000 ())))
  in
  (* A near tier that never fills never demotes: same slots, same costs,
     same counters as the built-in flat device, to the bit. *)
  Alcotest.(check (list (pair string int)))
    "counters identical to the flat device" flat tiered;
  Alcotest.(check (float 0.0)) "reclaim cost identical" flat_ns tiered_ns

(* --- the fleet driver --- *)

let tiny =
  { Fleet.default with Fleet.tenants = 9; surge = 3; steps = 2; queue_limit = 2 }

let run_tiny () =
  Fleet.run ~collector_of:(Exp_common.collector_of Exp_common.Svagc) tiny

let test_fleet_determinism () =
  let a = run_tiny () in
  let b = run_tiny () in
  (* The run exercises every plane it claims to. *)
  Alcotest.(check bool) "surge overflows the queue" true (a.Fleet.rejected > 0);
  Alcotest.(check int) "reject counter agrees" a.Fleet.rejected
    a.Fleet.perf.Perf.admission_rejects;
  Alcotest.(check bool) "tier demotions happened" true
    (a.Fleet.perf.Perf.tier_demotions > 0);
  Alcotest.(check bool) "multiple waves ran" true (a.Fleet.waves >= 2);
  Alcotest.(check bool) "every admitted tenant paused" true
    (Histogram.count a.Fleet.pauses >= a.Fleet.admitted);
  (* Same config + seed replays decisions, placement and percentiles to
     the bit. *)
  Alcotest.(check (list (pair string int)))
    "perf counters replay (demote/promote/reject included)"
    (Perf.to_assoc a.Fleet.perf)
    (Perf.to_assoc b.Fleet.perf);
  Alcotest.(check int) "admitted replays" a.Fleet.admitted b.Fleet.admitted;
  Alcotest.(check int) "waves replay" a.Fleet.waves b.Fleet.waves;
  Alcotest.(check (pair int int)) "tier placement replays" a.Fleet.tier
    b.Fleet.tier;
  Alcotest.(check int) "pause count replays"
    (Histogram.count a.Fleet.pauses)
    (Histogram.count b.Fleet.pauses);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "pause quantile %g replays" q)
        (Histogram.quantile a.Fleet.pauses q)
        (Histogram.quantile b.Fleet.pauses q);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "stall quantile %g replays" q)
        (Histogram.quantile a.Fleet.stalls q)
        (Histogram.quantile b.Fleet.stalls q))
    [ 0.5; 0.99; 0.999 ];
  Alcotest.(check (float 0.0)) "total time replays" a.Fleet.total_ns
    b.Fleet.total_ns

(* Each bad input is rejected up front with a one-line reason, before a
   machine is built. *)
let test_validate_rejects () =
  Alcotest.(check bool) "default is valid" true
    (Fleet.validate Fleet.default = Ok ());
  let d = Fleet.default in
  List.iter
    (fun (what, config, reason) ->
      Alcotest.(check (result unit string)) what (Error reason)
        (Fleet.validate config);
      Alcotest.check_raises (what ^ ": run raises") (Invalid_argument reason)
        (fun () ->
          ignore
            (Fleet.run
               ~collector_of:(Exp_common.collector_of Exp_common.Svagc)
               config)))
    [
      ( "--overcommit 0",
        { d with Fleet.overcommit = 0.0 },
        "Fleet: overcommit must be >= 1" );
      ( "--near-frac 2.0",
        { d with Fleet.near_frac = 2.0 },
        "Fleet: near_frac must be in (0, 1]" );
      ( "--cgroup-soft 5 --cgroup-hard 1",
        { d with Fleet.cgroup_soft = 5.0; cgroup_hard = 1.0 },
        "Fleet: need 0 < cgroup_soft <= cgroup_hard" );
      ( "--tenants 0",
        { d with Fleet.tenants = 0 },
        "Fleet: tenants must be >= 1" );
    ]

let test_fleet_under_oracle () =
  Svagc_check.Check.enable ~label:"fleet-test" ();
  ignore (run_tiny ());
  match Svagc_check.Check.disable () with
  | None -> Alcotest.fail "shadow oracle produced no report"
  | Some rep ->
    List.iter
      (fun f -> Format.printf "%a@." Svagc_check.Check.pp_finding f)
      rep.Svagc_check.Check.findings;
    Alcotest.(check int) "no findings" 0
      (List.length rep.Svagc_check.Check.findings)

let () =
  Alcotest.run "svagc_fleet"
    [
      ( "admission",
        [
          Alcotest.test_case "decisions & FIFO" `Quick test_admission_decisions;
          Alcotest.test_case "10k tenants" `Quick test_admission_10k;
        ] );
      ( "swap_tier",
        [
          Alcotest.test_case "demote/promote + payload" `Quick
            test_tier_demote_promote;
          Alcotest.test_case "oversized near tier = flat device" `Quick
            test_oversized_near_tier_is_flat;
          Alcotest.test_case "no aliasing across demotion" `Quick
            test_tier_no_aliasing;
        ] );
      ( "cgroup",
        [
          Alcotest.test_case "hard limit enforced" `Quick test_cgroup_hard_limit;
          Alcotest.test_case "soft-limit-first victims" `Quick
            test_soft_limit_first;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "bit determinism" `Quick test_fleet_determinism;
          Alcotest.test_case "validate rejects bad inputs" `Quick
            test_validate_rejects;
          Alcotest.test_case "conservation laws hold" `Quick
            test_fleet_under_oracle;
        ] );
    ]
