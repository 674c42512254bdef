module J = Sn_json.Json
module P = Protocol
module C = Sn_circuit
module E = Sn_engine
module A = Sn_analysis
module N = Sn_numerics
module Flow = Snoise.Flow

let log_src = Logs.Src.create "sn.server" ~doc:"snoise serving core"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  max_queue : int;
  client_quota : int;
  max_decks : int;
  tran_max_points : int;
  max_flows : int;
  mem_watermark_mb : int;
  warmup_journal : string option;
}

let default_config =
  { max_queue = 256; client_quota = 32; max_decks = 128;
    tran_max_points = 100_000; max_flows = 8; mem_watermark_mb = 4096;
    warmup_journal = None }

type pending = { seq : int; client : int; arrived : float; req : P.request }

type t = {
  config : config;
  cache : Plan_cache.t;
  lock : Mutex.t;
  queue : pending Queue.t;
  per_client : (int, int) Hashtbl.t;
  mutable seq : int;
  started : float;
  (* counters (all under [lock]) *)
  verb_counts : (string, int) Hashtbl.t;
  verb_ms : (string, float) Hashtbl.t;
  mutable requests_total : int;
  mutable responses_total : int;
  mutable errors_total : int;
  mutable rejected_busy : int;
  mutable rejected_quota : int;
  mutable max_depth : int;
  mutable dispatches : int;
  mutable coalesced : int;
  mutable svc_total_ms : float;
  mutable svc_max_ms : float;
  mutable svc_last_ms : float;
  (* VCO flows for the spur verb, keyed by (vtune, grid); LRU-bounded
     because each resident flow holds a substrate macromodel plus
     compiled tank plans *)
  flows : Flow.vco_flow Sn_rf.Lru.t;
  mutable flow_hits : int;
  mutable flow_misses : int;
  (* resilience layer (all under [lock] unless noted) *)
  restarts : int;  (* set by the supervisor via SNOISE_RESTARTS *)
  mutable deadline_exceeded : int;
  mutable disconnected : int;
  mutable shed_events : int;
  mutable shed_plans : int;
  mutable rejected_memory : int;
  mutable last_shed : float;
  journal : Journal.t option;
  journaled : (string, unit) Hashtbl.t;  (* keys already appended *)
  mutable journal_replayed : int;
  mutable journaling : bool;  (* off while warming, to avoid echo *)
}

let create ?(config = default_config) () =
  {
    config;
    cache = Plan_cache.create ~max_decks:config.max_decks ();
    lock = Mutex.create ();
    queue = Queue.create ();
    per_client = Hashtbl.create 16;
    seq = 0;
    started = Unix.gettimeofday ();
    verb_counts = Hashtbl.create 16;
    verb_ms = Hashtbl.create 16;
    requests_total = 0;
    responses_total = 0;
    errors_total = 0;
    rejected_busy = 0;
    rejected_quota = 0;
    max_depth = 0;
    dispatches = 0;
    coalesced = 0;
    svc_total_ms = 0.0;
    svc_max_ms = 0.0;
    svc_last_ms = 0.0;
    flows = Sn_rf.Lru.create ~capacity:(max 1 config.max_flows);
    flow_hits = 0;
    flow_misses = 0;
    restarts =
      (match Sys.getenv_opt "SNOISE_RESTARTS" with
      | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0)
      | None -> 0);
    deadline_exceeded = 0;
    disconnected = 0;
    shed_events = 0;
    shed_plans = 0;
    rejected_memory = 0;
    last_shed = 0.0;
    journal = Option.map (fun path -> Journal.open_ ~path) config.warmup_journal;
    journaled = Hashtbl.create 16;
    journal_replayed = 0;
    journaling = true;
  }

let cache t = t.cache

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let queue_depth t = with_lock t (fun () -> Queue.length t.queue)

(* ------------------------------------------------------------------ *)
(* request-shape failures raised by handlers, mapped to wire errors by
   [guard_result] below — a malformed request must produce a structured
   reply, never a disconnect or a crash *)

exception Bad of string
exception Unreadable of string
exception Lint_errors of A.Analyzer.report

let name_hint = function
  | [] -> ""
  | cs -> Printf.sprintf " (did you mean %s?)" (String.concat ", " cs)

let guard_result ~id f =
  match f () with
  | v -> Ok v
  | exception E.Diag.Error d -> Error (P.diag_error ~id d)
  | exception Lint_errors report ->
    Error
      (P.error ~id
         ~data:[ ("lint", A.Analyzer.to_json report) ]
         P.Lint_refused "lint errors refused simulation")
  | exception Bad m -> Error (P.error ~id P.Bad_request m)
  | exception Unreadable m -> Error (P.error ~id P.Deck_unreadable m)
  | exception C.Spice.Parse_error (line, msg) ->
    Error
      (P.error ~id P.Deck_unreadable
         (Printf.sprintf "SPICE parse error at line %d: %s" line msg))
  | exception C.Netlist.Invalid msgs ->
    Error (P.error ~id P.Deck_unreadable (String.concat "; " msgs))
  | exception E.Mna.Unknown_node { node; candidates } ->
    Error
      (P.error ~id P.Bad_request
         (Printf.sprintf "unknown node %S%s" node (name_hint candidates)))
  | exception E.Mna.Unknown_branch { name; candidates } ->
    Error
      (P.error ~id P.Bad_request
         (Printf.sprintf "unknown branch %S%s" name (name_hint candidates)))
  | exception Invalid_argument m -> Error (P.error ~id P.Bad_request m)
  | exception Not_found ->
    Error (P.error ~id P.Bad_request "unknown name in request")
  | exception N.Cancel.Cancelled tok ->
    (* cooperative cancellation unwound the work at an iteration
       boundary; report how far it got so the client can reason about
       a retry budget *)
    Error
      (P.error ~id
         ~data:
           [
             ( "progress",
               J.Obj
                 [ ("iterations", J.Num (float_of_int (N.Cancel.progress tok))) ]
             );
             ("reason", J.Str (N.Cancel.reason tok));
           ]
         P.Deadline_exceeded
         "deadline exceeded; work cancelled at an iteration boundary")
  | exception e -> Error (P.error ~id P.Internal (Printexc.to_string e))

(* re-tag a shared group error with one member's id *)
let with_id json id =
  match json with
  | J.Obj members ->
    J.Obj
      (List.map
         (fun (k, v) -> if String.equal k "id" then (k, id) else (k, v))
         members)
  | other -> other

(* ------------------------------------------------------------------ *)
(* params accessors (the ["params"] object of a request) *)

let params_members = function
  | J.Null -> []
  | J.Obj members -> members
  | _ -> raise (Bad "\"params\" must be an object")

let opt_field m k = List.assoc_opt k m

let opt_float m k =
  match opt_field m k with
  | None -> None
  | Some v -> (
    match J.to_float v with
    | Some f -> Some f
    | None -> raise (Bad (Printf.sprintf "param %S must be a number" k)))

let req_float m k =
  match opt_float m k with
  | Some f -> f
  | None -> raise (Bad (Printf.sprintf "missing required param %S" k))

let opt_int m k =
  match opt_field m k with
  | None -> None
  | Some v -> (
    match J.to_int v with
    | Some i -> Some i
    | None -> raise (Bad (Printf.sprintf "param %S must be an integer" k)))

let opt_bool m k =
  match opt_field m k with
  | None -> None
  | Some v -> (
    match J.to_bool v with
    | Some b -> Some b
    | None -> raise (Bad (Printf.sprintf "param %S must be a boolean" k)))

let opt_str m k =
  match opt_field m k with
  | None -> None
  | Some v -> (
    match J.to_str v with
    | Some s -> Some s
    | None -> raise (Bad (Printf.sprintf "param %S must be a string" k)))

let req_str m k =
  match opt_str m k with
  | Some s -> s
  | None -> raise (Bad (Printf.sprintf "missing required param %S" k))

let opt_str_list m k =
  match opt_field m k with
  | None -> None
  | Some v -> (
    match J.to_list v with
    | None -> raise (Bad (Printf.sprintf "param %S must be an array" k))
    | Some items ->
      Some
        (List.map
           (fun item ->
             match J.to_str item with
             | Some s -> s
             | None ->
               raise (Bad (Printf.sprintf "param %S must hold strings" k)))
           items))

(* ["freqs": [...]] or a generated span ["fstart"/"fstop"/"points"
   with log (default) or lin "spacing"] *)
let freqs_of_params m =
  match opt_field m "freqs" with
  | Some v -> (
    match J.float_list v with
    | Some (_ :: _ as l) -> Array.of_list l
    | Some [] -> raise (Bad "\"freqs\" must not be empty")
    | None -> raise (Bad "\"freqs\" must be an array of numbers"))
  | None ->
    let fstart = req_float m "fstart" and fstop = req_float m "fstop" in
    let points = Option.value (opt_int m "points") ~default:50 in
    if points < 1 then raise (Bad "\"points\" must be >= 1");
    (match Option.value (opt_str m "spacing") ~default:"log" with
    | "log" -> N.Sweep.logspace fstart fstop points
    | "lin" -> N.Sweep.linspace fstart fstop points
    | other ->
      raise (Bad (Printf.sprintf "unknown spacing %S (log or lin)" other)))

(* ------------------------------------------------------------------ *)
(* deck resolution and compilation *)

let source_text = function
  | P.Inline s -> s
  | P.Path p -> (
    try In_channel.with_open_bin p In_channel.input_all
    with Sys_error m -> raise (Unreadable m))

let source_name = function P.Inline _ -> "<inline>" | P.Path p -> p

let require_source (req : P.request) =
  match req.P.source with
  | Some s -> s
  | None ->
    raise
      (Bad
         (Printf.sprintf "verb %S needs a deck (\"deck\" or \"deck_path\")"
            (P.verb_name req.P.verb)))

(* reserved override keys steering server-side model-order reduction:
   they are configuration, not element values, so they are peeled off
   before apply_overrides's unknown-element check.  deck_key digests
   the raw override list, so requests differing only in reduce_*
   settings compile into distinct plan-cache entries. *)
let reduction_of_overrides overrides =
  let order = ref None and tol = ref None and s0 = ref None in
  let elements =
    List.filter
      (fun (k, v) ->
        match String.lowercase_ascii k with
        | "reduce_order" ->
          if Float.is_integer v && v >= 1.0 && v <= 1024.0 then
            order := Some (int_of_float v)
          else
            raise
              (Bad
                 (Printf.sprintf
                    "override \"reduce_order\": expected an integer order >= \
                     1, got %g"
                    v));
          false
        | "reduce_tol" ->
          if v > 0.0 && v < 1.0 then tol := Some v
          else
            raise
              (Bad
                 (Printf.sprintf
                    "override \"reduce_tol\": expected a relative tolerance \
                     in (0, 1), got %g"
                    v));
          false
        | "reduce_s0" ->
          if v > 0.0 then s0 := Some v
          else
            raise
              (Bad
                 (Printf.sprintf
                    "override \"reduce_s0\": expected an expansion point in \
                     Hz > 0, got %g"
                    v));
          false
        | _ -> true)
      overrides
  in
  let config =
    match (!order, !tol) with
    | None, None ->
      if !s0 <> None then
        raise
          (Bad
             "override \"reduce_s0\" needs \"reduce_order\" or \"reduce_tol\"")
      else None
    | Some _, Some _ ->
      raise (Bad "overrides \"reduce_order\" and \"reduce_tol\" conflict")
    | Some k, None ->
      Some
        {
          Snoise.Reduced_model.default_config with
          Snoise.Reduced_model.order = Snoise.Reduced_model.Fixed k;
          s0_hz =
            Option.value !s0
              ~default:Snoise.Reduced_model.default_config
                         .Snoise.Reduced_model.s0_hz;
        }
    | None, Some e ->
      Some
        {
          Snoise.Reduced_model.default_config with
          Snoise.Reduced_model.order = Snoise.Reduced_model.Auto e;
          s0_hz =
            Option.value !s0
              ~default:Snoise.Reduced_model.default_config
                         .Snoise.Reduced_model.s0_hz;
        }
  in
  (elements, config)

let apply_overrides nl overrides =
  if overrides = [] then nl
  else begin
    let wanted = Hashtbl.create 8 in
    List.iter
      (fun (k, v) -> Hashtbl.replace wanted (String.lowercase_ascii k) v)
      overrides;
    let used = Hashtbl.create 8 in
    let subst e =
      let name = String.lowercase_ascii (C.Element.name e) in
      match Hashtbl.find_opt wanted name with
      | None -> e
      | Some v ->
        Hashtbl.replace used name ();
        (match e with
        | C.Element.Resistor r -> C.Element.Resistor { r with ohms = v }
        | C.Element.Capacitor c -> C.Element.Capacitor { c with farads = v }
        | C.Element.Inductor l -> C.Element.Inductor { l with henries = v }
        | C.Element.Vsource s ->
          C.Element.Vsource { s with wave = C.Waveform.dc v }
        | C.Element.Isource s ->
          C.Element.Isource { s with wave = C.Waveform.dc v }
        | C.Element.Vccs g -> C.Element.Vccs { g with gm = v }
        | C.Element.Vcvs g -> C.Element.Vcvs { g with gain = v }
        | C.Element.Mosfet _ | C.Element.Varactor _ ->
          raise
            (Bad
               (Printf.sprintf
                  "override %S: only R/C/L/V/I/G/E values can be overridden"
                  name)))
    in
    let elements = List.map subst (C.Netlist.elements nl) in
    List.iter
      (fun (k, _) ->
        if not (Hashtbl.mem used (String.lowercase_ascii k)) then
          raise (Bad (Printf.sprintf "override %S names no deck element" k)))
      overrides;
    C.Netlist.create ~title:(C.Netlist.title nl)
      ~pragmas:(C.Netlist.pragmas nl)
      ~directives:(C.Netlist.directives nl)
      ~locs:(C.Netlist.element_locs nl) elements
  end

(* parse (cached), apply overrides; the compiled result is lint-gated
   with a wire-structured refusal and cached under the content key *)
let netlist_of t ~src ~text ~overrides =
  let nl =
    Plan_cache.find_netlist t.cache ~text ~parse:(fun s ->
        C.Spice.of_string ~file:(source_name src) s)
  in
  let element_overrides, reduce = reduction_of_overrides overrides in
  let nl = apply_overrides nl element_overrides in
  match reduce with
  | None -> (nl, None)
  | Some config -> Snoise.Reduced_model.reduce_deck_certified ~config nl

let journal_compile t ~key ~text ~overrides =
  match t.journal with
  | None -> ()
  | Some j ->
    let fresh =
      with_lock t (fun () ->
          if t.journaling && not (Hashtbl.mem t.journaled key) then begin
            Hashtbl.replace t.journaled key ();
            true
          end
          else false)
    in
    if fresh then Journal.append j { Journal.text; overrides }

let compiled_of t ~src ~text ~overrides =
  let key = Plan_cache.deck_key ~text ~overrides in
  let result =
    Plan_cache.find_compiled t.cache ~key ~compile:(fun () ->
        let nl, reduced = netlist_of t ~src ~text ~overrides in
        let report = A.Analyzer.analyze nl in
        (match A.Analyzer.errors report with
        | [] -> ()
        | _ -> raise (Lint_errors report));
        {
          Plan_cache.cp_plan = Flow.compile_deck ~lint:false nl;
          cp_reduced = Option.map fst reduced;
          cp_cert = Option.bind reduced snd;
        })
  in
  (match result with
  | _, P.Miss -> journal_compile t ~key ~text ~overrides
  | _ -> ());
  let cp, note = result in
  (cp.Plan_cache.cp_plan, note)

(* ------------------------------------------------------------------ *)
(* result rendering *)

let cx_json (c : Complex.t) = J.Arr [ J.Num c.Complex.re; J.Num c.Complex.im ]

let float_arr a = J.Arr (Array.to_list (Array.map (fun v -> J.Num v) a))

let ac_points_json ~nodes ~freqs table =
  J.Arr
    (Array.to_list
       (Array.map
          (fun freq ->
            let values : (string * Complex.t) list = Hashtbl.find table freq in
            J.Obj
              [
                ("freq", J.Num freq);
                ( "v",
                  J.Obj
                    (List.map
                       (fun n -> (n, cx_json (List.assoc n values)))
                       nodes) );
              ])
          freqs))

let noise_points_json ~with_contributions ~freqs table =
  J.Arr
    (Array.to_list
       (Array.map
          (fun freq ->
            let (p : E.Noise.point) = Hashtbl.find table freq in
            let base =
              [
                ("freq", J.Num freq);
                ("total_psd", J.Num p.E.Noise.total_psd);
                ("spot_nv", J.Num (E.Noise.spot_nv p));
              ]
            in
            let members =
              if with_contributions then
                base
                @ [
                    ( "contributions",
                      J.Arr
                        (List.map
                           (fun (c : E.Noise.contribution) ->
                             J.Obj
                               [
                                 ("element", J.Str c.E.Noise.element);
                                 ("psd", J.Num c.E.Noise.psd);
                               ])
                           p.E.Noise.contributions) );
                  ]
              else base
            in
            J.Obj members)
          freqs))

(* ------------------------------------------------------------------ *)
(* batching: one signature per sweep-shaped request, so [drain] can
   coalesce same-plan same-node requests into one pool dispatch *)

type sweep_sig = {
  sg_key : string;  (* plan-cache key: deck digest + overrides *)
  sg_src : P.source;
  sg_text : string;
  sg_overrides : (string * float) list;
  sg_columns : string list;  (* AC probe nodes, or the noise output *)
  sg_freqs : float array;
  sg_contributions : bool;  (* noise only: render per-element PSDs *)
  sg_deadline_ms : float option;  (* only equal deadlines coalesce *)
}

let ac_signature (req : P.request) =
  let m = params_members req.P.params in
  let nodes =
    match opt_str_list m "nodes" with
    | Some (_ :: _ as ns) -> ns
    | Some [] -> raise (Bad "\"nodes\" must not be empty")
    | None -> raise (Bad "missing required param \"nodes\"")
  in
  let src = require_source req in
  let text = source_text src in
  {
    sg_key = Plan_cache.deck_key ~text ~overrides:req.P.overrides;
    sg_src = src;
    sg_text = text;
    sg_overrides = req.P.overrides;
    sg_columns = nodes;
    sg_freqs = freqs_of_params m;
    sg_contributions = false;
    sg_deadline_ms = req.P.deadline_ms;
  }

let noise_signature (req : P.request) =
  let m = params_members req.P.params in
  let output = req_str m "output" in
  let src = require_source req in
  let text = source_text src in
  {
    sg_key = Plan_cache.deck_key ~text ~overrides:req.P.overrides;
    sg_src = src;
    sg_text = text;
    sg_overrides = req.P.overrides;
    sg_columns = [ output ];
    sg_contributions = Option.value (opt_bool m "contributions") ~default:false;
    sg_freqs = freqs_of_params m;
    sg_deadline_ms = req.P.deadline_ms;
  }

let compatible a b =
  String.equal a.sg_key b.sg_key
  && List.length a.sg_columns = List.length b.sg_columns
  && List.for_all2 String.equal a.sg_columns b.sg_columns
  (* a bounded and an unbounded request must not share a fate, and
     mixed deadlines would cancel the whole group at the earliest one *)
  && Option.equal Float.equal a.sg_deadline_ms b.sg_deadline_ms

let union_freqs members =
  List.concat_map (fun (_, sg) -> Array.to_list sg.sg_freqs) members
  |> List.sort_uniq compare
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* per-verb handlers.  Each returns (result, plan note, bias note). *)

let run_op t (req : P.request) =
  let src = require_source req in
  let text = source_text src in
  let compiled, plan_note =
    compiled_of t ~src ~text ~overrides:req.P.overrides
  in
  let bias_note =
    if Flow.compiled_bias_cached compiled then P.Hit else P.Miss
  in
  let dc = Flow.compiled_bias compiled in
  let m = params_members req.P.params in
  let nodes =
    match opt_str_list m "nodes" with
    | Some ns -> ns
    | None ->
      Array.to_list (E.Mna.node_names (Flow.compiled_mna compiled))
      |> List.sort String.compare
  in
  let voltages = List.map (fun n -> (n, J.Num (E.Dc.voltage dc n))) nodes in
  (J.Obj [ ("voltages", J.Obj voltages) ], plan_note, bias_note)

let run_tran t (req : P.request) =
  let src = require_source req in
  let text = source_text src in
  let compiled, plan_note =
    compiled_of t ~src ~text ~overrides:req.P.overrides
  in
  let m = params_members req.P.params in
  let tstop = req_float m "tstop" and dt = req_float m "dt" in
  if tstop <= 0.0 || dt <= 0.0 then
    raise (Bad "\"tstop\" and \"dt\" must be > 0");
  let n_points = int_of_float (Float.round (tstop /. dt)) + 1 in
  if n_points > t.config.tran_max_points then
    raise
      (Bad
         (Printf.sprintf
            "%d points exceed the service limit of %d (raise \"dt\" or \
             split the window)"
            n_points t.config.tran_max_points));
  let method_ =
    match Option.value (opt_str m "method") ~default:"trapezoidal" with
    | "trapezoidal" | "trap" -> E.Tran.Trapezoidal
    | "backward-euler" | "be" -> E.Tran.Backward_euler
    | other ->
      raise
        (Bad
           (Printf.sprintf "unknown method %S (trapezoidal or backward-euler)"
              other))
  in
  let options =
    { E.Tran.default_options with
      E.Tran.method_ = method_;
      record = opt_str_list m "nodes" }
  in
  let ds =
    E.Tran.simulate ~options ~tstop ~dt (Flow.compiled_netlist compiled)
  in
  let waves =
    Array.to_list
      (Array.mapi
         (fun k name -> (name, float_arr ds.E.Tran.data.(k)))
         ds.E.Tran.names)
  in
  let truncated =
    match ds.E.Tran.truncated with
    | None -> J.Null
    | Some d -> E.Diag.to_json d
  in
  ( J.Obj
      [
        ("times", float_arr ds.E.Tran.times);
        ("waves", J.Obj waves);
        ("truncated", truncated);
      ],
    plan_note,
    P.Not_applicable )

let run_lint t (req : P.request) =
  let src = require_source req in
  let text = source_text src in
  let nl, _ = netlist_of t ~src ~text ~overrides:req.P.overrides in
  let m = params_members req.P.params in
  let strict = Option.value (opt_bool m "strict") ~default:false in
  let parse_ignore s =
    match String.index_opt s '=' with
    | None -> (s, None)
    | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  let config =
    {
      A.Analyzer.default with
      A.Analyzer.disabled =
        Option.value (opt_str_list m "disable") ~default:[];
      ignores =
        List.map parse_ignore
          (Option.value (opt_str_list m "ignore") ~default:[]);
    }
  in
  let report = A.Analyzer.analyze ~config nl in
  let failing =
    A.Analyzer.errors report <> []
    || (strict && A.Analyzer.warnings report <> [])
  in
  ( J.Obj
      [
        ("report", A.Analyzer.to_json report);
        ("failing", J.Bool failing);
      ],
    P.Not_applicable,
    P.Not_applicable )

(* the verify verb: three modes, picked by the request shape.
   A deck source runs the full numerical pre-flight; params.cache_dir
   re-judges an on-disk tile-cache directory from certificates alone;
   neither re-verifies the resident plan cache.  All three are
   hash-or-LDL^T work — never an extraction, solve or CG iteration. *)

let run_verify t (req : P.request) =
  let m = params_members req.P.params in
  let num i = J.Num (float_of_int i) in
  let header mode =
    [ ("schema_version", num A.Analyzer.schema_version); ("mode", J.Str mode) ]
  in
  match (opt_str m "cache_dir", req.P.source) with
  | Some _, Some _ ->
    raise (Bad "give a deck or \"cache_dir\", not both")
  | Some dir, None ->
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      raise (Bad (Printf.sprintf "cache_dir %S is not a directory" dir));
    let module SC = Sn_substrate.Cache in
    let v = SC.verify_dir (SC.create ~dir) in
    ( SC.verification_to_json
        ~header:(header "cache" @ [ ("dir", J.Str dir) ])
        v,
      P.Not_applicable,
      P.Not_applicable )
  | None, Some src ->
    let text = source_text src in
    let nl, _ = netlist_of t ~src ~text ~overrides:req.P.overrides in
    ( Flow.preflight_to_json ~header:(header "deck") (Flow.preflight nl),
      P.Not_applicable,
      P.Not_applicable )
  | None, None ->
    let pv = Plan_cache.verify_plans t.cache in
    ( J.Obj
        (header "plans"
        @ [
            ("plans", num pv.Plan_cache.pv_plans);
            ("exact", num pv.Plan_cache.pv_exact);
            ("certified", num pv.Plan_cache.pv_certified);
            ("uncertified", num pv.Plan_cache.pv_uncertified);
            ("bad", num pv.Plan_cache.pv_bad);
            ("failing", J.Bool (pv.Plan_cache.pv_bad > 0));
          ]),
      P.Not_applicable,
      P.Not_applicable )

let run_extract t (req : P.request) =
  let src = require_source req in
  let text = source_text src in
  let macro, note =
    Plan_cache.find_macro t.cache ~text ~extract:(fun () ->
        let layout = Sn_layout.Layout_io.of_string text in
        Sn_substrate.Extractor.extract_from_layout ~tech:Sn_tech.Tech.imec018
          layout)
  in
  let resistors =
    List.map
      (fun (a, b, r) -> J.Arr [ J.Str a; J.Str b; J.Num r ])
      (Sn_substrate.Macromodel.to_resistors macro)
  in
  ( J.Obj
      [
        ( "ports",
          J.Arr
            (List.map (fun p -> J.Str p)
               (Sn_substrate.Macromodel.port_names macro)) );
        ("resistors", J.Arr resistors);
      ],
    note,
    P.Not_applicable )

let run_spur t (req : P.request) =
  let m = params_members req.P.params in
  let f_noise = req_float m "f_noise" in
  let vtune = Option.value (opt_float m "vtune") ~default:0.45 in
  let p_noise_dbm = Option.value (opt_float m "p_noise_dbm") ~default:(-5.0) in
  let nx = Option.value (opt_int m "nx") ~default:48 in
  let ny = Option.value (opt_int m "ny") ~default:48 in
  if nx < 4 || ny < 4 then raise (Bad "\"nx\"/\"ny\" must be >= 4");
  let key = Printf.sprintf "%.17g:%d:%d" vtune nx ny in
  let cached =
    with_lock t (fun () ->
        match Sn_rf.Lru.find t.flows key with
        | Some f ->
          t.flow_hits <- t.flow_hits + 1;
          Some f
        | None ->
          t.flow_misses <- t.flow_misses + 1;
          None)
  in
  let flow, note =
    match cached with
    | Some f -> (f, P.Hit)
    | None ->
      let grid =
        { Flow.default_options.Flow.grid with
          Sn_substrate.Grid.nx = nx;
          ny = ny }
      in
      let options = { Flow.default_options with Flow.grid = grid } in
      let f = Flow.build_vco ~options Sn_testchip.Vco_chip.default ~vtune in
      with_lock t (fun () -> Sn_rf.Lru.add t.flows key f);
      (f, P.Miss)
  in
  let h = Flow.vco_transfers flow ~f_noise:[| f_noise |] in
  let spur = Flow.vco_spur flow ~h ~p_noise_dbm ~f_noise in
  let module I = Sn_rf.Impact in
  ( J.Obj
      [
        ("carrier_hz", J.Num (Flow.vco_carrier_freq flow));
        ("amplitude_v", J.Num (Flow.vco_amplitude flow));
        ("f_noise", J.Num spur.I.f_noise);
        ("lower_dbm", J.Num spur.I.lower_dbm);
        ("upper_dbm", J.Num spur.I.upper_dbm);
        ( "contributions",
          J.Arr
            (List.map
               (fun (c : I.contribution) ->
                 J.Obj
                   [
                     ("entry", J.Str c.I.entry_label);
                     ("h_mag", J.Num c.I.h_mag);
                     ("spur_dbm", J.Num c.I.spur_dbm);
                   ])
               spur.I.contributions) );
      ],
    note,
    P.Not_applicable )

(* ------------------------------------------------------------------ *)
(* memory watermark: Gc heap words plus the plan cache's own size
   accounting, checked at admission so the service answers [busy]
   before the OOM killer answers for us *)

let words_to_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

let heap_mb () = words_to_mb (Gc.quick_stat ()).Gc.heap_words

let mem_pressure_mb t =
  Float.max (heap_mb ()) (words_to_mb (Plan_cache.plan_words t.cache))

let over_watermark t = mem_pressure_mb t > float_of_int t.config.mem_watermark_mb

(* Shed LRU state and compact.  Rate-limited: if a shed five seconds
   ago did not get us under the watermark, another one will not either
   — go straight to backpressure instead of thrashing the compactor. *)
let try_shed t =
  let now = Unix.gettimeofday () in
  let allowed =
    with_lock t (fun () ->
        if now -. t.last_shed < 5.0 then false
        else begin
          t.last_shed <- now;
          t.shed_events <- t.shed_events + 1;
          true
        end)
  in
  if allowed then begin
    let resident = (Plan_cache.stats t.cache).Plan_cache.plans in
    let dropped = Plan_cache.shed t.cache ~keep:(resident / 2) in
    let flows_dropped =
      with_lock t (fun () ->
          Sn_rf.Lru.trim t.flows
            ~max_entries:(Sn_rf.Lru.length t.flows / 2))
    in
    with_lock t (fun () -> t.shed_plans <- t.shed_plans + dropped);
    Log.warn (fun m ->
        m "memory watermark: shed %d plan(s), %d flow(s), compacting"
          dropped flows_dropped);
    Gc.compact ()
  end

(* ------------------------------------------------------------------ *)
(* stats *)

let stats_json t =
  let cs = Plan_cache.stats t.cache in
  let pool = Snoise.Sweep.stats () in
  let tile = Sn_substrate.Cache.resolution () in
  let verb_table table to_json =
    with_lock t (fun () ->
        Hashtbl.fold (fun k v acc -> (k, to_json v) :: acc) table []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))
  in
  let ms v = Float.round (v *. 1000.0) /. 1000.0 in
  let num i = J.Num (float_of_int i) in
  J.Obj
    [
      ("uptime_s", J.Num (Unix.gettimeofday () -. t.started));
      ("requests", num t.requests_total);
      ("responses", num t.responses_total);
      ("errors", num t.errors_total);
      ("by_verb", J.Obj (verb_table t.verb_counts num));
      ( "queue",
        J.Obj
          [
            ("capacity", num t.config.max_queue);
            ("depth", num (queue_depth t));
            ("max_depth", num t.max_depth);
            ("client_quota", num t.config.client_quota);
            ("rejected_busy", num t.rejected_busy);
            ("rejected_quota", num t.rejected_quota);
          ] );
      ( "batch",
        J.Obj
          [
            ("dispatches", num t.dispatches);
            ("coalesced_requests", num t.coalesced);
          ] );
      ( "plan_cache",
        J.Obj
          [
            ("plans", num cs.Plan_cache.plans);
            ("certified_plans", num cs.Plan_cache.certified_plans);
            ("plan_hits", num cs.Plan_cache.plan_hits);
            ("plan_misses", num cs.Plan_cache.plan_misses);
            ("parse_hits", num cs.Plan_cache.parse_hits);
            ("parse_misses", num cs.Plan_cache.parse_misses);
            ("macro_hits", num cs.Plan_cache.macro_hits);
            ("macro_misses", num cs.Plan_cache.macro_misses);
            ("evictions", num cs.Plan_cache.evictions);
            ("plan_words", num cs.Plan_cache.plan_words);
            ("shed_plans", num t.shed_plans);
            ("flows", num (Sn_rf.Lru.length t.flows));
            ("flow_capacity", num (Sn_rf.Lru.capacity t.flows));
            ("flow_evictions", num (Sn_rf.Lru.evictions t.flows));
            ("flow_hits", num t.flow_hits);
            ("flow_misses", num t.flow_misses);
          ] );
      ( "timings_ms",
        J.Obj
          (("total", J.Num (ms t.svc_total_ms))
           :: ("last", J.Num (ms t.svc_last_ms))
           :: ("max", J.Num (ms t.svc_max_ms))
           :: verb_table t.verb_ms (fun v -> J.Num (ms v))) );
      ( "pool",
        J.Obj
          [
            ("jobs", num pool.E.Pool.jobs);
            ("tasks_run", num pool.E.Pool.tasks_run);
            ("batches", num pool.E.Pool.batches);
            ("cpu_seconds", J.Num (E.Pool.cpu_seconds pool));
            ("wall_seconds", J.Num pool.E.Pool.wall_seconds);
            ("imbalance", J.Num (E.Pool.imbalance pool));
          ] );
      ( "tile_cache",
        let tc = Sn_substrate.Cache.counters () in
        J.Obj
          [
            ( "origin",
              J.Str
                (Sn_substrate.Cache.origin_name tile.Sn_substrate.Cache.origin)
            );
            ( "dir",
              match tile.Sn_substrate.Cache.dir with
              | Some d -> J.Str d
              | None -> J.Null );
            ("lookups", num tc.Sn_substrate.Cache.lookups);
            ("hits", num tc.Sn_substrate.Cache.hits);
            ("rejected", num tc.Sn_substrate.Cache.rejected);
            ("stores", num tc.Sn_substrate.Cache.stores);
          ] );
      ( "reduction",
        J.Obj
          (("reductions", num (Snoise.Reduced_model.reductions ()))
          ::
          (match Snoise.Reduced_model.last_stats () with
          | None -> []
          | Some r ->
            let module R = Snoise.Reduced_model in
            [
              ("last_ports", num r.R.ports);
              ("last_internal", num r.R.internal);
              ("last_rank", num r.R.rank);
              ("last_order", num r.R.order);
              ("last_build_ms", J.Num (ms (r.R.build_seconds *. 1000.0)));
              ( "last_est_error",
                if Float.is_nan r.R.est_error then J.Null
                else J.Num r.R.est_error );
            ])) );
      ( "memory",
        J.Obj
          [
            ("watermark_mb", num t.config.mem_watermark_mb);
            ("heap_mb", J.Num (Float.round (heap_mb () *. 100.) /. 100.));
            ("shed_events", num t.shed_events);
            ("rejected_memory", num t.rejected_memory);
          ] );
      ( "cancel",
        J.Obj
          [
            ("deadline_exceeded", num t.deadline_exceeded);
            ("disconnected", num t.disconnected);
          ] );
      ("restarts", num t.restarts);
      ( "journal",
        match t.journal with
        | None -> J.Null
        | Some j ->
          J.Obj
            [
              ("path", J.Str (Journal.path j));
              ("recorded", num (Journal.recorded j));
              ("replayed", num t.journal_replayed);
            ] );
    ]

(* liveness + readiness in one verb: cheap enough for a tight probe
   loop, detailed enough for a load balancer to act on *)
let health_json t =
  let depth = queue_depth t in
  let pool = Snoise.Sweep.stats () in
  let cs = Plan_cache.stats t.cache in
  let pressure = mem_pressure_mb t in
  let watermark = float_of_int t.config.mem_watermark_mb in
  let shedding = pressure > watermark in
  let queue_full = depth >= t.config.max_queue in
  let status = if shedding || queue_full then "degraded" else "ok" in
  let num i = J.Num (float_of_int i) in
  J.Obj
    [
      ("status", J.Str status);
      ("uptime_s", J.Num (Unix.gettimeofday () -. t.started));
      ( "queue",
        J.Obj [ ("depth", num depth); ("capacity", num t.config.max_queue) ] );
      ("pool", J.Obj [ ("jobs", num pool.E.Pool.jobs) ]);
      ( "cache",
        J.Obj
          [
            ("plans", num cs.Plan_cache.plans);
            ("flows", num (Sn_rf.Lru.length t.flows));
          ] );
      ( "memory",
        J.Obj
          [
            ("pressure_mb", J.Num (Float.round (pressure *. 100.) /. 100.));
            ("watermark_mb", J.Num watermark);
            ("shedding", J.Bool shedding);
          ] );
      ("restarts", num t.restarts);
    ]

(* ------------------------------------------------------------------ *)
(* submit: parse, immediately answer control verbs and refusals, queue
   analysis work *)

let bump table k v =
  match Hashtbl.find_opt table k with
  | Some prev -> Hashtbl.replace table k (prev +. v)
  | None -> Hashtbl.replace table k v

let count table k =
  match Hashtbl.find_opt table k with
  | Some prev -> Hashtbl.replace table k (prev + 1)
  | None -> Hashtbl.replace table k 1

let note_reply t reply =
  with_lock t (fun () ->
      match reply with
      | J.Obj (("type", J.Str "error") :: _) ->
        t.errors_total <- t.errors_total + 1
      | _ -> t.responses_total <- t.responses_total + 1);
  reply

let submit t ~client line =
  let trimmed = String.trim line in
  match J.parse trimmed with
  | Error msg -> `Replied (note_reply t (P.error P.Parse_error msg))
  | Ok json -> (
    with_lock t (fun () -> t.requests_total <- t.requests_total + 1);
    match P.parse_request json with
    | Error (code, msg) ->
      let id = Option.value (J.member "id" json) ~default:J.Null in
      `Replied (note_reply t (P.error ~id code msg))
    | Ok req -> (
      with_lock t (fun () -> count t.verb_counts (P.verb_name req.P.verb));
      let served_now =
        { P.elapsed_ms = 0.0; plan = P.Not_applicable;
          bias = P.Not_applicable; batched = 1 }
      in
      match req.P.verb with
      | P.Ping ->
        `Replied
          (note_reply t
             (P.response ~id:req.P.id ~verb:P.Ping ~served:served_now
                (J.Obj [])))
      | P.Stats ->
        `Replied
          (note_reply t
             (P.response ~id:req.P.id ~verb:P.Stats ~served:served_now
                (stats_json t)))
      | P.Health ->
        `Replied
          (note_reply t
             (P.response ~id:req.P.id ~verb:P.Health ~served:served_now
                (health_json t)))
      | P.Shutdown ->
        `Shutdown
          (note_reply t
             (P.response ~id:req.P.id ~verb:P.Shutdown ~served:served_now
                (J.Obj [ ("stopping", J.Bool true) ])))
      | P.Op | P.Ac | P.Tran | P.Noise | P.Spur | P.Lint | P.Verify
      | P.Extract -> (
        (* graceful degradation: when the heap (or the accounted plan
           cache) crosses the watermark, shed LRU state once, and if
           that was not enough answer busy instead of growing toward
           the OOM killer *)
        let memory_ok =
          if not (over_watermark t) then true
          else begin
            try_shed t;
            not (over_watermark t)
          end
        in
        let arrived = Unix.gettimeofday () in
        let verdict =
          with_lock t (fun () ->
              let depth = Queue.length t.queue in
              let mine =
                Option.value (Hashtbl.find_opt t.per_client client) ~default:0
              in
              if not memory_ok then begin
                t.rejected_memory <- t.rejected_memory + 1;
                t.rejected_busy <- t.rejected_busy + 1;
                `Memory
              end
              else if depth >= t.config.max_queue then begin
                t.rejected_busy <- t.rejected_busy + 1;
                `Busy
              end
              else if mine >= t.config.client_quota then begin
                t.rejected_quota <- t.rejected_quota + 1;
                `Quota
              end
              else begin
                t.seq <- t.seq + 1;
                Queue.add { seq = t.seq; client; arrived; req } t.queue;
                Hashtbl.replace t.per_client client (mine + 1);
                t.max_depth <- max t.max_depth (depth + 1);
                `Accepted
              end)
        in
        match verdict with
        | `Accepted -> `Queued
        | `Memory ->
          `Replied
            (note_reply t
               (P.error ~id:req.P.id
                  ~data:[ ("retry_after_ms", J.Num 100.0) ]
                  P.Busy
                  (Printf.sprintf
                     "memory pressure: %.0f MB exceeds the %d MB watermark"
                     (mem_pressure_mb t) t.config.mem_watermark_mb)))
        | `Busy ->
          `Replied
            (note_reply t
               (P.error ~id:req.P.id
                  ~data:[ ("retry_after_ms", J.Num 100.0) ]
                  P.Busy
                  (Printf.sprintf "queue full (%d requests)"
                     t.config.max_queue)))
        | `Quota ->
          `Replied
            (note_reply t
               (P.error ~id:req.P.id
                  ~data:[ ("retry_after_ms", J.Num 100.0) ]
                  P.Quota_exceeded
                  (Printf.sprintf "client has %d requests queued (quota %d)"
                     t.config.client_quota t.config.client_quota))))))

(* ------------------------------------------------------------------ *)
(* drain: execute everything queued, coalescing sweep-shaped work *)

let finish_timing t verb t0 =
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  with_lock t (fun () ->
      t.svc_total_ms <- t.svc_total_ms +. elapsed_ms;
      t.svc_last_ms <- elapsed_ms;
      if elapsed_ms > t.svc_max_ms then t.svc_max_ms <- elapsed_ms;
      bump t.verb_ms (P.verb_name verb) elapsed_ms);
  elapsed_ms

(* chaos point: die abruptly mid-request, exactly as a segfault or an
   OOM kill would — no at_exit, no cleanup.  The supervisor's job is
   to make this invisible to the next request. *)
let fire_kill () =
  if E.Fault.fire E.Fault.Server_kill then begin
    Log.err (fun m -> m "injected fault: killing worker mid-request");
    Unix._exit 70
  end

(* Arm the cooperative-cancellation token for one dispatch.  The
   deadline counts from admission ([arrived]), so time spent queued
   burns budget too; a request that expired while queued is refused
   before any engine work. *)
let run_with_deadline t ~arrived ~deadline_ms f =
  match deadline_ms with
  | None -> f ()
  | Some ms -> (
    let tok = N.Cancel.create ~deadline:(arrived +. (ms /. 1000.0)) () in
    try
      N.Cancel.check tok;
      N.Cancel.with_token tok f
    with N.Cancel.Cancelled _ as e ->
      with_lock t (fun () -> t.deadline_exceeded <- t.deadline_exceeded + 1);
      raise e)

let serve_single t (p : pending) =
  let t0 = Unix.gettimeofday () in
  let outcome =
    guard_result ~id:p.req.P.id (fun () ->
        fire_kill ();
        run_with_deadline t ~arrived:p.arrived ~deadline_ms:p.req.P.deadline_ms
          (fun () ->
            match p.req.P.verb with
            | P.Op -> run_op t p.req
            | P.Tran -> run_tran t p.req
            | P.Lint -> run_lint t p.req
            | P.Verify -> run_verify t p.req
            | P.Extract -> run_extract t p.req
            | P.Spur -> run_spur t p.req
            | P.Ac | P.Noise | P.Stats | P.Ping | P.Health | P.Shutdown ->
              assert false))
  in
  let elapsed_ms = finish_timing t p.req.P.verb t0 in
  with_lock t (fun () -> t.dispatches <- t.dispatches + 1);
  match outcome with
  | Error reply -> note_reply t reply
  | Ok (result, plan, bias) ->
    note_reply t
      (P.response ~id:p.req.P.id ~verb:p.req.P.verb
         ~served:{ P.elapsed_ms; plan; bias; batched = 1 }
         result)

(* serve a compatible group of AC (or noise) requests with one pool
   dispatch over the union of their frequencies.  Byte-identity with
   one-by-one serving holds because the cached plan's pivot order is
   fixed by its first (master) factorization — every dispatch refills
   the same pattern numerically. *)
let serve_sweep_group t ~verb (members : (pending * sweep_sig) list) emit =
  let t0 = Unix.gettimeofday () in
  let leader = snd (List.hd members) in
  let n = List.length members in
  with_lock t (fun () ->
      t.dispatches <- t.dispatches + 1;
      if n > 1 then t.coalesced <- t.coalesced + (n - 1));
  let union = union_freqs members in
  Log.debug (fun m ->
      m "dispatch %s: %d request(s), %d union point(s)" (P.verb_name verb) n
        (Array.length union));
  (* the earliest member's admission time bounds the whole group (all
     members carry the same deadline_ms by [compatible]) *)
  let arrived =
    List.fold_left
      (fun acc ((p : pending), _) -> Float.min acc p.arrived)
      Float.infinity members
  in
  let outcome =
    guard_result ~id:J.Null (fun () ->
        fire_kill ();
        run_with_deadline t ~arrived ~deadline_ms:leader.sg_deadline_ms
          (fun () ->
        let compiled, plan_note =
          compiled_of t ~src:leader.sg_src ~text:leader.sg_text
            ~overrides:leader.sg_overrides
        in
        let bias_note =
          if Flow.compiled_bias_cached compiled then P.Hit else P.Miss
        in
        let acp = Flow.compiled_ac_plan compiled in
        let render =
          match verb with
          | P.Ac ->
            let points =
              E.Ac.sweep_plan acp ~freqs:union ~nodes:leader.sg_columns
            in
            let table = Hashtbl.create (Array.length union) in
            Array.iter
              (fun (pt : E.Ac.sweep_point) ->
                Hashtbl.replace table pt.E.Ac.freq pt.E.Ac.values)
              points;
            fun sg ->
              J.Obj
                [
                  ( "points",
                    ac_points_json ~nodes:sg.sg_columns ~freqs:sg.sg_freqs
                      table );
                ]
          | P.Noise ->
            let dc = Flow.compiled_bias compiled in
            let output = List.hd leader.sg_columns in
            let points = E.Noise.analyze_plan ~dc acp ~output ~freqs:union in
            let table = Hashtbl.create (Array.length union) in
            List.iter
              (fun (pt : E.Noise.point) ->
                Hashtbl.replace table pt.E.Noise.freq pt)
              points;
            fun sg ->
              let points_json =
                noise_points_json ~with_contributions:sg.sg_contributions
                  ~freqs:sg.sg_freqs table
              in
              let total_rms =
                if Array.length sg.sg_freqs >= 2 then
                  J.Num
                    (E.Noise.total_rms
                       (Array.to_list
                          (Array.map (Hashtbl.find table) sg.sg_freqs)))
                else J.Null
              in
              J.Obj [ ("points", points_json); ("total_rms", total_rms) ]
          | _ -> assert false
        in
        (plan_note, bias_note, render)))
  in
  let elapsed_ms = finish_timing t verb t0 in
  match outcome with
  | Error failure ->
    (* the group failed as a unit (lint refusal, singular pivot, bad
       deck): every member gets the error, tagged with its own id *)
    List.iter
      (fun ((p : pending), _) ->
        emit p.seq p.client (note_reply t (with_id failure p.req.P.id)))
      members
  | Ok (plan_note, bias_note, render) ->
    List.iteri
      (fun i ((p : pending), sg) ->
        (* the leader reports the real cache outcome; coalesced
           followers ran off the (by now resident) plan *)
        let plan = if i = 0 then plan_note else P.Hit in
        let bias = if i = 0 then bias_note else P.Hit in
        emit p.seq p.client
          (note_reply t
             (P.response ~id:p.req.P.id ~verb
                ~served:{ P.elapsed_ms; plan; bias; batched = n }
                (render sg))))
      members

let drain ?(alive = fun _ -> true) t =
  let items =
    with_lock t (fun () ->
        let items = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        Hashtbl.reset t.per_client;
        items)
  in
  (* a client that hung up while queued gets no work done on its
     behalf: the reply would be dropped anyway, so the pool slot goes
     to a request somebody is still waiting for *)
  let items =
    List.filter
      (fun (p : pending) ->
        alive p.client
        ||
        begin
          with_lock t (fun () -> t.disconnected <- t.disconnected + 1);
          Log.info (fun m ->
              m "dropping request from disconnected client #%d" p.client);
          false
        end)
      items
  in
  let results = ref [] in
  let emit seq client reply = results := (seq, (client, reply)) :: !results in
  let taken = Hashtbl.create 16 in
  let try_signature (p : pending) =
    match p.req.P.verb with
    | P.Ac -> Some (guard_result ~id:p.req.P.id (fun () -> ac_signature p.req))
    | P.Noise ->
      Some (guard_result ~id:p.req.P.id (fun () -> noise_signature p.req))
    | _ -> None
  in
  List.iter
    (fun (p : pending) ->
      if not (Hashtbl.mem taken p.seq) then begin
        Hashtbl.replace taken p.seq ();
        match try_signature p with
        | None -> emit p.seq p.client (serve_single t p)
        | Some (Error reply) -> emit p.seq p.client (note_reply t reply)
        | Some (Ok leader_sig) ->
          let group = ref [ (p, leader_sig) ] in
          List.iter
            (fun (q : pending) ->
              if (not (Hashtbl.mem taken q.seq)) && q.req.P.verb = p.req.P.verb
              then
                match try_signature q with
                | Some (Ok qsig) when compatible leader_sig qsig ->
                  Hashtbl.replace taken q.seq ();
                  group := (q, qsig) :: !group
                | _ -> ())
            items;
          serve_sweep_group t ~verb:p.req.P.verb (List.rev !group) emit
      end)
    items;
  List.sort (fun (a, _) (b, _) -> compare a b) !results |> List.map snd

(* Replay the warmup journal into the plan cache (most recent
   [max_decks] unique decks), then compact the file to exactly those
   entries.  Failures are counted, not raised: a deck that stopped
   compiling only costs its own warmth. *)
let warm_from_journal t =
  match t.journal with
  | None -> (0, 0)
  | Some j ->
    let entries = Journal.replay ~path:(Journal.path j) in
    let key_of (e : Journal.entry) =
      Plan_cache.deck_key ~text:e.Journal.text ~overrides:e.Journal.overrides
    in
    let seen = Hashtbl.create 16 in
    let unique =
      List.rev entries
      |> List.filter (fun e ->
             let key = key_of e in
             if Hashtbl.mem seen key then false
             else begin
               Hashtbl.replace seen key ();
               true
             end)
      |> List.filteri (fun i _ -> i < t.config.max_decks)
      |> List.rev
    in
    t.journaling <- false;
    let ok = ref 0 and failed = ref 0 in
    List.iter
      (fun (e : Journal.entry) ->
        match
          compiled_of t ~src:(P.Inline e.Journal.text) ~text:e.Journal.text
            ~overrides:e.Journal.overrides
        with
        | _ -> incr ok
        | exception _ -> incr failed)
      unique;
    t.journaling <- true;
    List.iter (fun e -> Hashtbl.replace t.journaled (key_of e) ()) unique;
    with_lock t (fun () -> t.journal_replayed <- !ok);
    if unique <> [] then Journal.rewrite j unique;
    Log.info (fun m ->
        m "warmup journal: %d plan(s) recompiled, %d failed" !ok !failed);
    (!ok, !failed)

let handle t ~client line =
  match submit t ~client line with
  | `Replied r | `Shutdown r -> [ r ]
  | `Queued ->
    drain t
    |> List.filter_map (fun (c, reply) ->
           if c = client then Some reply else None)
