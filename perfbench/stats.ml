let nearest_rank ~q n =
  if n <= 0 then invalid_arg "Stats.nearest_rank: no samples";
  let x = q *. float_of_int n in
  let eps = 1e-9 *. Float.max 1.0 (Float.abs x) in
  max 1 (min n (int_of_float (ceil (x -. eps))))

let beyond ~q n = n - nearest_rank ~q n

let reportable ~q n = n > 0 && beyond ~q n >= 10

let highest_reportable qs n =
  List.fold_left
    (fun best q ->
      match best with
      | Some b when b >= q -> best
      | _ -> if reportable ~q n then Some q else best)
    None qs

let ratio ~num ~base = if base = 0.0 then 0.0 else num /. base

let pct ~num ~base = 100.0 *. ratio ~num ~base

let self_times ~parent ~dur =
  let self = Array.copy dur in
  Array.iteri (fun i p -> if p >= 0 then self.(p) <- self.(p) -. dur.(i)) parent;
  self

let sum_by ~kind ~nkinds v =
  let out = Array.make nkinds 0.0 in
  Array.iteri (fun i k -> out.(k) <- out.(k) +. v.(i)) kind;
  out
