let max_domains = 128

type t = { n_domains : int }

let create ~domains =
  if domains < 1 || domains > max_domains then
    invalid_arg "Domain_pool.create: domains out of range";
  { n_domains = domains }

let domains t = t.n_domains

(* Set while this domain runs tasks of a [map], so a nested [map] runs
   inline instead of spawning domains of its own. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let as_task g =
  if Domain.DLS.get in_task then g ()
  else begin
    Domain.DLS.set in_task true;
    Fun.protect ~finally:(fun () -> Domain.DLS.set in_task false) g
  end

let map t f xs =
  let tasks = Array.of_list xs in
  let n = Array.length tasks in
  let helpers =
    if Domain.DLS.get in_task then 0 else min (t.n_domains - 1) (n - 1)
  in
  if helpers <= 0 then as_task (fun () -> List.map f xs)
  else begin
    (* Each task writes only its own slot; [Domain.join] publishes the
       helpers' writes to the caller. *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some
            (try Ok (f tasks.(i))
             with e -> Error (e, Printexc.get_raw_backtrace ()));
        claim ()
      end
    in
    let spawned =
      List.init helpers (fun _ -> Domain.spawn (fun () -> as_task claim))
    in
    as_task claim;
    List.iter Domain.join spawned;
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    List.init n (fun i ->
        match results.(i) with Some (Ok v) -> v | _ -> assert false)
  end

let env_domains () =
  match Sys.getenv_opt "DOMAINS" with
  | None -> Ok (max 1 (min 4 (Domain.recommended_domain_count ())))
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 && n <= max_domains -> Ok n
    | _ ->
      Error
        (Printf.sprintf "DOMAINS must be an integer in 1..%d (got %S)"
           max_domains s))

let global () =
  match env_domains () with
  | Ok domains -> create ~domains
  | Error msg -> invalid_arg msg
