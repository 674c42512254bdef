(* Spans and counters recorded by the benchmark around its own calls
   into the library.  Disarmed (the default), [span] is a direct call,
   so untraced runs measure the program alone.  Armed, each span keeps
   its name, start, end and parent in memory; [write_chrome] dumps
   them as Chrome trace-event JSON when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  start : float;  (** seconds since [origin] *)
  stop : float;
}

let armed = ref false
let origin = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. origin
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let span name f =
  if not !armed then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = now () in
    let finish () =
      stack := List.tl !stack;
      spans := { id; name; parent; start; stop = now () } :: !spans
    in
    Fun.protect ~finally:finish f
  end

let all () = List.rev !spans
let duration s = s.stop -. s.start

(* Children run one after another on the bench's single thread, so a
   span's self time is its duration minus the sum of its children's. *)
let children_time () =
  let t = Hashtbl.create 256 in
  List.iter
    (fun c ->
      if c.parent >= 0 then
        Hashtbl.replace t c.parent
          (duration c +. Option.value ~default:0.0 (Hashtbl.find_opt t c.parent)))
    !spans;
  t

let self_time children s =
  duration s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)

(* Spans named [name] with an ancestor named [ancestor]. *)
let within ancestor name =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  let rec has_ancestor id =
    match Hashtbl.find_opt by_id id with
    | None -> false
    | Some p -> p.name = ancestor || has_ancestor p.parent
  in
  List.filter (fun s -> s.name = name && has_ancestor s.parent) (all ())

let write_chrome path ~meta ~counters =
  let module J = Sn_server.Json in
  let us t = J.Num (Float.round (t *. 1e7) /. 10.0) in
  let children = children_time () in
  let events =
    List.map
      (fun s ->
        J.Obj
          [
            ("name", J.Str s.name);
            ("ph", J.Str "X");
            ("ts", us s.start);
            ("dur", us (duration s));
            ("pid", J.Num 1.0);
            ("tid", J.Num 1.0);
            ( "args",
              J.Obj
                [
                  ("id", J.Num (float_of_int s.id));
                  ("parent", J.Num (float_of_int s.parent));
                  ("self_us", us (self_time children s));
                ] );
          ])
      (all ())
  in
  let counter_event =
    J.Obj
      [
        ("name", J.Str "counters");
        ("ph", J.Str "C");
        ("ts", us (now ()));
        ("pid", J.Num 1.0);
        ("args", J.Obj counters);
      ]
  in
  let doc =
    J.Obj
      [
        ("traceEvents", J.Arr (events @ [ counter_event ]));
        ("displayTimeUnit", J.Str "ms");
        ("otherData", J.Obj meta);
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc
