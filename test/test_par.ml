(* Tests for the simulated work-stealing executor. *)

module Work_steal = Svagc_par.Work_steal

let qtest ?(count = 150) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let run ?(threads = 4) ?(steal_ns = 0.0) ?(barrier_ns = 0.0) costs =
  Work_steal.run ~threads ~steal_ns ~barrier_ns ~cost:(fun c -> c)
    ~execute:ignore (Array.of_list costs)

let test_empty () =
  let st = run [] in
  Alcotest.(check (float 1e-9)) "empty makespan" 0.0 st.Work_steal.makespan_ns;
  Alcotest.(check int) "no steals" 0 st.Work_steal.steals

let test_single_thread_is_sum () =
  let st = run ~threads:1 ~barrier_ns:5.0 [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check (float 1e-9)) "sum + barrier" 11.0 st.Work_steal.makespan_ns

let test_perfect_split () =
  let st = run ~threads:2 [ 10.0; 10.0 ] in
  Alcotest.(check (float 1e-9)) "parallel halves" 10.0 st.Work_steal.makespan_ns

let test_execute_each_once () =
  let seen = Hashtbl.create 16 in
  let items = Array.init 100 (fun i -> i) in
  let st =
    Work_steal.run ~threads:3 ~steal_ns:1.0 ~barrier_ns:0.0
      ~cost:(fun i -> float_of_int (i mod 7))
      ~execute:(fun i ->
        Hashtbl.replace seen i (1 + Option.value ~default:0 (Hashtbl.find_opt seen i)))
      items
  in
  Alcotest.(check int) "tasks" 100 st.Work_steal.tasks;
  Alcotest.(check int) "all executed" 100 (Hashtbl.length seen);
  Hashtbl.iter (fun _ n -> Alcotest.(check int) "exactly once" 1 n) seen

let test_stealing_happens_on_imbalance () =
  (* With round-robin seeding, thread 0 gets all the heavy tasks unless
     the others steal. *)
  let costs = List.init 12 (fun i -> if i mod 3 = 0 then 100.0 else 1.0) in
  let st = run ~threads:3 ~steal_ns:1.0 costs in
  Alcotest.(check bool) "makespan beats serial heavy chain" true
    (st.Work_steal.makespan_ns < 400.0 -. 1e-9)

let test_more_threads_not_slower () =
  let costs = List.init 64 (fun i -> float_of_int (1 + (i mod 9))) in
  let t1 = (run ~threads:1 costs).Work_steal.makespan_ns in
  let t4 = (run ~threads:4 costs).Work_steal.makespan_ns in
  let t16 = (run ~threads:16 costs).Work_steal.makespan_ns in
  Alcotest.(check bool) "4 <= 1" true (t4 <= t1 +. 1e-9);
  Alcotest.(check bool) "16 <= 4 (free stealing)" true (t16 <= t4 +. 1e-9)

let test_deterministic () =
  let costs = List.init 50 (fun i -> float_of_int ((i * 37 mod 11) + 1)) in
  let a = run ~threads:5 ~steal_ns:2.0 costs in
  let b = run ~threads:5 ~steal_ns:2.0 costs in
  Alcotest.(check (float 1e-12)) "same makespan" a.Work_steal.makespan_ns
    b.Work_steal.makespan_ns;
  Alcotest.(check int) "same steals" a.Work_steal.steals b.Work_steal.steals

let test_invalid_threads () =
  Alcotest.check_raises "zero threads"
    (Invalid_argument "Work_steal.run: threads must be positive") (fun () ->
      ignore (run ~threads:0 [ 1.0 ]))

let arb_costs =
  QCheck.(
    pair (int_range 1 8)
      (list_of_size Gen.(1 -- 60) (float_range 0.0 100.0)))

let prop_makespan_lower_bounds =
  qtest "makespan >= max(total/threads, max_task)" arb_costs
    (fun (threads, costs) ->
      let st = run ~threads costs in
      let total = List.fold_left ( +. ) 0.0 costs in
      let biggest = List.fold_left Float.max 0.0 costs in
      st.Work_steal.makespan_ns +. 1e-6 >= total /. float_of_int threads
      && st.Work_steal.makespan_ns +. 1e-6 >= biggest)

let prop_makespan_upper_bound =
  qtest "makespan <= total work + steal overhead" arb_costs
    (fun (threads, costs) ->
      let st =
        Work_steal.run ~threads ~steal_ns:3.0 ~barrier_ns:0.0 ~cost:(fun c -> c)
          ~execute:ignore (Array.of_list costs)
      in
      st.Work_steal.makespan_ns
      <= List.fold_left ( +. ) 0.0 costs
         +. (3.0 *. float_of_int st.Work_steal.steals)
         +. 1e-6)

let prop_total_work_preserved =
  qtest "total work = sum of costs" arb_costs
    (fun (threads, costs) ->
      let st = run ~threads costs in
      Float.abs (st.Work_steal.total_work_ns -. List.fold_left ( +. ) 0.0 costs)
      < 1e-6)

(* [makespan] is a flat replay of [run]'s schedule: the two must agree to
   the bit.  Small task counts (threads > n), zero and repeated costs
   (clock ties) and both zero and positive steal costs are drawn often. *)
let arb_makespan_case =
  let open QCheck.Gen in
  let cost =
    frequency
      [
        (1, return 0.0);
        (2, map float_of_int (int_range 1 4));
        (2, float_range 0.0 100.0);
      ]
  in
  let n = frequency [ (1, int_range 0 20); (2, int_range 0 500) ] in
  QCheck.make
    ~print:(fun (threads, costs, steal_ns, barrier_ns) ->
      Printf.sprintf "threads=%d steal_ns=%g barrier_ns=%g costs=[%s]" threads
        steal_ns barrier_ns
        (String.concat "; " (List.map string_of_float (Array.to_list costs))))
    (quad (int_range 1 16)
       (n >>= fun n -> array_size (return n) cost)
       (oneofl [ 0.0; 0.7; 3.0 ])
       (oneofl [ 0.0; 5.0 ]))

let prop_makespan_matches_run =
  qtest ~count:1000 "makespan = run's makespan_ns, bit for bit"
    arb_makespan_case
    (fun (threads, costs, steal_ns, barrier_ns) ->
      let reference =
        Work_steal.run ~threads ~steal_ns ~barrier_ns ~cost:Fun.id
          ~execute:ignore costs
      in
      Int64.bits_of_float (Work_steal.makespan ~threads ~steal_ns ~barrier_ns costs)
      = Int64.bits_of_float reference.Work_steal.makespan_ns)

(* --- Deque --- *)

module Deque = Svagc_par.Deque

let test_deque_owner_lifo_thief_fifo () =
  let d = Deque.create () in
  List.iter (Deque.push d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Deque.length d);
  Alcotest.(check (option int)) "owner pops newest" (Some 4) (Deque.pop_back d);
  Alcotest.(check (option int)) "thief steals oldest" (Some 1)
    (Deque.steal_front d);
  Alcotest.(check (option int)) "next steal" (Some 2) (Deque.steal_front d);
  Alcotest.(check (option int)) "owner again" (Some 3) (Deque.pop_back d);
  Alcotest.(check bool) "drained" true (Deque.is_empty d);
  Alcotest.(check (option int)) "pop empty" None (Deque.pop_back d);
  Alcotest.(check (option int)) "steal empty" None (Deque.steal_front d)

let test_deque_reuse_after_drain () =
  let d = Deque.create () in
  (* Drain via steals (head index advances), then reuse: the head must
     have been reset so new pushes are visible. *)
  List.iter (Deque.push d) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "steal 1" (Some 1) (Deque.steal_front d);
  Alcotest.(check (option int)) "steal 2" (Some 2) (Deque.steal_front d);
  Alcotest.(check (option int)) "steal 3" (Some 3) (Deque.steal_front d);
  Deque.push d 9;
  Alcotest.(check int) "length after reuse" 1 (Deque.length d);
  Alcotest.(check (option int)) "fresh element" (Some 9) (Deque.pop_back d)

let prop_deque_model =
  qtest ~count:300 "deque agrees with a list model"
    QCheck.(list (int_range 0 2))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      let counter = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            incr counter;
            Deque.push d !counter;
            model := !model @ [ !counter ];
            true
          | 1 ->
            let expected =
              match List.rev !model with
              | [] -> None
              | x :: rest ->
                model := List.rev rest;
                Some x
            in
            Deque.pop_back d = expected
          | _ ->
            let expected =
              match !model with
              | [] -> None
              | x :: rest ->
                model := rest;
                Some x
            in
            Deque.steal_front d = expected)
        ops
      && Deque.length d = List.length !model)

(* --- Domain_pool: whole tasks on real domains --- *)

module Domain_pool = Svagc_par.Domain_pool
module Process = Svagc_kernel.Process

let test_pool_executes_once () =
  List.iter
    (fun domains ->
      let pool = Domain_pool.create ~domains in
      let hits = Array.init 64 (fun _ -> Atomic.make 0) in
      ignore
        (Domain_pool.map pool (fun i -> Atomic.incr hits.(i)) (List.init 64 Fun.id));
      Array.iteri
        (fun i n ->
          if Atomic.get n <> 1 then
            Alcotest.failf "%d domains: task %d ran %d times" domains i
              (Atomic.get n))
        hits)
    [ 1; 2; 4 ]

let test_pool_map_order () =
  let xs = List.init 33 Fun.id in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "list order at %d domains" domains)
        (List.map (fun i -> i * i) xs)
        (Domain_pool.map (Domain_pool.create ~domains) (fun i -> i * i) xs))
    [ 1; 2; 4 ];
  Alcotest.(check (list int)) "empty" []
    (Domain_pool.map (Domain_pool.create ~domains:4) Fun.id [])

exception Boom of int

let test_pool_exception_lowest () =
  (* Tasks 3 and 7 both fail.  On several domains 3 waits (boundedly)
     for 7 to fail first, yet 3's exception is the one re-raised. *)
  let attempt domains =
    let seven_failed = Atomic.make false in
    try
      ignore
        (Domain_pool.map (Domain_pool.create ~domains)
           (fun i ->
             if i = 3 then begin
               let spins = ref 0 in
               while (not (Atomic.get seven_failed)) && !spins < 10_000_000 do
                 incr spins
               done;
               raise (Boom 3)
             end;
             if i = 7 then begin
               Atomic.set seven_failed true;
               raise (Boom 7)
             end)
           (List.init 16 Fun.id));
      None
    with Boom i -> Some i
  in
  List.iter
    (fun domains ->
      Alcotest.(check (option int))
        (Printf.sprintf "%d domains" domains)
        (Some 3) (attempt domains))
    [ 1; 2; 4 ]

let test_pool_nested_inline () =
  let pool = Domain_pool.create ~domains:3 in
  let outer = Domain.self () in
  let results =
    Domain_pool.map pool
      (fun i ->
        let here = Domain.self () in
        Domain_pool.map pool
          (fun j -> (i, j, Domain.self () = here))
          (List.init 8 Fun.id))
      (List.init 4 Fun.id)
  in
  List.iteri
    (fun i inner ->
      List.iteri
        (fun j (i', j', same_domain) ->
          if i' <> i || j' <> j then
            Alcotest.failf "nested result (%d, %d) at (%d, %d)" i' j' i j;
          if not same_domain then
            Alcotest.failf "nested task (%d, %d) left its parent's domain" i j)
        inner)
    results;
  Alcotest.(check bool) "caller domain unchanged" true (Domain.self () = outer)

let test_pool_create_bounds () =
  List.iter
    (fun domains ->
      Alcotest.check_raises
        (Printf.sprintf "domains = %d" domains)
        (Invalid_argument "Domain_pool.create: domains out of range")
        (fun () -> ignore (Domain_pool.create ~domains)))
    [ 0; -3; Domain_pool.max_domains + 1 ];
  List.iter
    (fun domains ->
      Alcotest.(check int) "domains echoed" domains
        (Domain_pool.domains (Domain_pool.create ~domains)))
    [ 1; Domain_pool.max_domains ]

let test_pids_unique_across_domains () =
  (* Each task builds its own machine and a batch of processes on it; the
     pid counter is shared by every domain. *)
  let pids =
    Domain_pool.map (Domain_pool.create ~domains:4)
      (fun _ ->
        let machine =
          Svagc_vmem.Machine.create ~ncores:2 ~phys_mib:4
            Svagc_vmem.Cost_model.xeon_6130
        in
        List.init 200 (fun _ -> Process.pid (Process.create machine)))
      (List.init 8 Fun.id)
    |> List.concat
  in
  Alcotest.(check int) "every pid distinct" (List.length pids)
    (List.length (List.sort_uniq compare pids))

let () =
  Alcotest.run "svagc_par"
    [
      ( "deque",
        [
          Alcotest.test_case "owner LIFO / thief FIFO" `Quick
            test_deque_owner_lifo_thief_fifo;
          Alcotest.test_case "reuse after drain" `Quick
            test_deque_reuse_after_drain;
          prop_deque_model;
        ] );
      ( "work_steal",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single thread" `Quick test_single_thread_is_sum;
          Alcotest.test_case "perfect split" `Quick test_perfect_split;
          Alcotest.test_case "execute once" `Quick test_execute_each_once;
          Alcotest.test_case "steal on imbalance" `Quick test_stealing_happens_on_imbalance;
          Alcotest.test_case "threads monotone" `Quick test_more_threads_not_slower;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "invalid threads" `Quick test_invalid_threads;
          prop_makespan_lower_bounds;
          prop_makespan_upper_bound;
          prop_total_work_preserved;
          prop_makespan_matches_run;
        ] );
      ( "domain_pool",
        [
          Alcotest.test_case "execute once, any domains" `Quick
            test_pool_executes_once;
          Alcotest.test_case "map in canonical order" `Quick
            test_pool_map_order;
          Alcotest.test_case "canonical exception" `Quick
            test_pool_exception_lowest;
          Alcotest.test_case "re-entrant run degrades inline" `Quick
            test_pool_nested_inline;
          Alcotest.test_case "create bounds" `Quick test_pool_create_bounds;
          Alcotest.test_case "pids unique across domains" `Quick
            test_pids_unique_across_domains;
        ] );
    ]
