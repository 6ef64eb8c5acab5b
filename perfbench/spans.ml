type t = {
  now : unit -> float;
  mutable n : int;
  mutable kind : int array;
  mutable parent : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable open_ : int list;
}

let create ~now =
  {
    now;
    n = 0;
    kind = Array.make 1024 0;
    parent = Array.make 1024 0;
    start = Array.make 1024 0.0;
    stop = Array.make 1024 0.0;
    open_ = [];
  }

let grow t =
  let cap = 2 * Array.length t.kind in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.kind <- extend t.kind 0;
  t.parent <- extend t.parent 0;
  t.start <- extend t.start 0.0;
  t.stop <- extend t.stop 0.0

let push t ~kind ~start ~stop ~parent =
  if t.n = Array.length t.kind then grow t;
  let id = t.n in
  t.kind.(id) <- kind;
  t.parent.(id) <- parent;
  t.start.(id) <- start;
  t.stop.(id) <- stop;
  t.n <- id + 1;
  id

let current t = match t.open_ with p :: _ -> p | [] -> -1

let enter t kind =
  let parent = current t in
  let id = push t ~kind ~start:(t.now ()) ~stop:nan ~parent in
  t.open_ <- id :: t.open_;
  id

let leave t id =
  let stop = t.now () in
  let rec close = function
    | [] -> invalid_arg "Spans.leave: span is not open"
    | top :: rest ->
      t.stop.(top) <- stop;
      if top = id then rest else close rest
  in
  t.open_ <- close t.open_

let add_closed t ~kind ~start ~stop ~parent =
  ignore (push t ~kind ~start ~stop ~parent)

let length t = t.n

let kinds t = Array.sub t.kind 0 t.n

let parents t = Array.sub t.parent 0 t.n

let durations t = Array.init t.n (fun i -> t.stop.(i) -. t.start.(i))

let write t ~names path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.start.(0) else 0.0 in
  output_string oc "id,name,parent,start_s,end_s\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%d,%s,%d,%.9f,%.9f\n" i names.(t.kind.(i)) t.parent.(i)
      (t.start.(i) -. t0) (t.stop.(i) -. t0)
  done;
  close_out oc
