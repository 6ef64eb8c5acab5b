let us_of_ns ns = ns /. 1000.0

let json_of_value = function
  | Event.Int i -> Json.Int i
  | Event.Float f -> Json.Float f
  | Event.Str s -> Json.Str s
  | Event.Bool b -> Json.Bool b

let json_of_args args =
  match args with
  | [] -> []
  | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) args)) ]

let json_of_event (e : Event.t) =
  let common =
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str (if e.cat = "" then "sim" else e.cat));
      ("ts", Json.Float (us_of_ns e.ts));
      ("pid", Json.Int e.pid);
      ("tid", Json.Int e.tid);
    ]
  in
  match e.kind with
  | Event.Span dur ->
    Json.Obj
      (common
      @ [ ("ph", Json.Str "X"); ("dur", Json.Float (us_of_ns dur)) ]
      @ json_of_args e.args)
  | Event.Instant ->
    Json.Obj
      (common
      @ [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
      @ json_of_args e.args)

let metadata tracer =
  let proc_meta =
    List.map
      (fun (pid, name) ->
        Json.Obj
          [
            ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int pid);
            ("args", Json.Obj [ ("name", Json.Str name) ]);
          ])
      (Tracer.process_names tracer)
  in
  let thread_meta =
    List.map
      (fun ((pid, tid), name) ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int pid);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.Str name) ]);
          ])
      (Tracer.thread_names tracer)
  in
  proc_meta @ thread_meta

let sorted_events tracer =
  (* The ring stores spans at completion time (children before parents);
     re-order by begin timestamp so viewers and the timeline renderer see
     a monotone stream.  [seq] keeps the order total and deterministic. *)
  List.sort
    (fun (a : Event.t) (b : Event.t) ->
      match compare a.ts b.ts with
      | 0 -> (
        match compare (Event.dur_ns b) (Event.dur_ns a) with
        | 0 -> compare a.seq b.seq
        | c -> c)
      | c -> c)
    (Tracer.events tracer)

let to_json tracer =
  let events = List.map json_of_event (sorted_events tracer) in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata tracer @ events));
      ("displayTimeUnit", Json.Str "ns");
      ( "otherData",
        Json.Obj
          [
            ("generator", Json.Str "svagc_trace");
            ("droppedEvents", Json.Int (Tracer.dropped tracer));
            ("capacity", Json.Int (Tracer.capacity tracer));
          ] );
    ]

let to_string tracer = Json.to_string (to_json tracer)
