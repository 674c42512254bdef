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
    cache =
      Plan_cache.create ~max_decks:config.max_decks
        ~max_flows:config.max_flows ();
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
    restarts =
      Option.value ~default:0
        (Option.bind (Sys.getenv_opt "SNOISE_RESTARTS") int_of_string_opt);
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

let params (req : P.request) =
  match req.P.params with
  | J.Null -> []
  | J.Obj members -> members
  | _ -> raise (Bad "\"params\" must be an object")

let opt conv what m k =
  Option.map
    (fun v ->
      match conv v with
      | Some x -> x
      | None -> raise (Bad (Printf.sprintf "param %S must be %s" k what)))
    (List.assoc_opt k m)

let opt_float = opt J.to_float "a number"
let opt_int = opt J.to_int "an integer"
let opt_bool = opt J.to_bool "a boolean"
let opt_str = opt J.to_str "a string"

let required k = function
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "missing required param %S" k))

let opt_str_list m k =
  Option.map
    (fun v ->
      match J.to_list v with
      | None -> raise (Bad (Printf.sprintf "param %S must be an array" k))
      | Some items ->
        List.map
          (fun item ->
            match J.to_str item with
            | Some s -> s
            | None ->
              raise (Bad (Printf.sprintf "param %S must hold strings" k)))
          items)
    (List.assoc_opt k m)

(* ["freqs": [...]] or a generated span ["fstart"/"fstop"/"points"
   with log (default) or lin "spacing"].  Checked here, not by the
   engine: one bad frequency in a coalesced group would otherwise fail
   every member of it. *)
let freqs_of_params m =
  let freqs =
    match List.assoc_opt "freqs" m with
    | Some v -> (
      match J.float_list v with
      | Some (_ :: _ as l) -> Array.of_list l
      | Some [] -> raise (Bad "\"freqs\" must not be empty")
      | None -> raise (Bad "\"freqs\" must be an array of numbers"))
    | None -> (
      let fstart = required "fstart" (opt_float m "fstart")
      and fstop = required "fstop" (opt_float m "fstop") in
      let points = Option.value (opt_int m "points") ~default:50 in
      if points < 1 then raise (Bad "\"points\" must be >= 1");
      match Option.value (opt_str m "spacing") ~default:"log" with
      | "log" -> N.Sweep.logspace fstart fstop points
      | "lin" -> N.Sweep.linspace fstart fstop points
      | other ->
        raise (Bad (Printf.sprintf "unknown spacing %S (log or lin)" other)))
  in
  Array.iter
    (fun f ->
      if not (Float.is_finite f && f >= 0.0) then
        raise
          (Bad (Printf.sprintf "frequency %g is not a finite value >= 0" f)))
    freqs;
  freqs

(* ------------------------------------------------------------------ *)
(* deck resolution and compilation *)

(* a deck-bearing request as decoded: the text is read once (a
   [deck_path] file included) and digested once into its plan key *)
type deck = {
  src : P.source;
  text : string;
  overrides : (string * float) list;
  key : string;  (* plan-cache key: deck digest + overrides *)
}

let deck_of_text src text overrides =
  { src; text; overrides; key = Plan_cache.deck_key ~text ~overrides }

let source_text = function
  | P.Inline s -> s
  | P.Path p -> (
    try In_channel.with_open_bin p In_channel.input_all
    with Sys_error m -> raise (Unreadable m))

let source_name = function P.Inline _ -> "<inline>" | P.Path p -> p

let require_text (req : P.request) =
  match req.P.source with
  | Some src -> (src, source_text src)
  | None ->
    raise
      (Bad
         (Printf.sprintf "verb %S needs a deck (\"deck\" or \"deck_path\")"
            (P.verb_name req.P.verb)))

let deck_of_request (req : P.request) =
  let src, text = require_text req in
  deck_of_text src text req.P.overrides

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
        | "reduce_order" -> order := Some v; false
        | "reduce_tol" -> tol := Some v; false
        | "reduce_s0" -> s0 := Some v; false
        | _ -> true)
      overrides
  in
  match
    Snoise.Reduced_model.config_of_settings ?order:!order ?tol:!tol ?s0:!s0 ()
  with
  | Ok config -> (elements, config)
  | Error msg -> raise (Bad msg)

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

(* parse (cached), apply the element overrides; the reduce_* overrides
   come back as the request's reduction configuration *)
let parsed t d =
  let nl =
    Plan_cache.find_netlist t.cache ~text:d.text ~parse:(fun s ->
        C.Spice.of_string ~file:(source_name d.src) s)
  in
  let element_overrides, reduce = reduction_of_overrides d.overrides in
  (apply_overrides nl element_overrides, reduce)

(* the deck as the request simulates it *)
let netlist_of t d =
  let nl, reduce = parsed t d in
  match reduce with
  | None -> (nl, None)
  | Some config -> Snoise.Reduced_model.reduce_deck_certified ~config nl

let journal_compile t d =
  match t.journal with
  | None -> ()
  | Some j ->
    let fresh =
      with_lock t (fun () ->
          if t.journaling && not (Hashtbl.mem t.journaled d.key) then begin
            Hashtbl.replace t.journaled d.key ();
            true
          end
          else false)
    in
    if fresh then
      Journal.append j { Journal.text = d.text; overrides = d.overrides }

(* the compiled result is lint-gated with a wire-structured refusal and
   cached under the content key *)
let compiled_of t d =
  let cp, note =
    Plan_cache.find_compiled t.cache ~key:d.key ~compile:(fun () ->
        let nl, reduced = netlist_of t d in
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
  if note = P.Miss then journal_compile t d;
  (cp.Plan_cache.cp_plan, note)

let bias_note compiled =
  if Flow.compiled_bias_cached compiled then P.Hit else P.Miss

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
            let contribution (c : E.Noise.contribution) =
              J.Obj
                [
                  ("element", J.Str c.E.Noise.element);
                  ("psd", J.Num c.E.Noise.psd);
                ]
            in
            J.Obj
              ([
                 ("freq", J.Num freq);
                 ("total_psd", J.Num p.E.Noise.total_psd);
                 ("spot_nv", J.Num (E.Noise.spot_nv p));
               ]
              @
              if with_contributions then
                [
                  ( "contributions",
                    J.Arr (List.map contribution p.E.Noise.contributions) );
                ]
              else []))
          freqs))

(* ------------------------------------------------------------------ *)
(* per-verb decode and run.  [decode] reads and validates a request
   before any engine work; [run] serves a group of decoded requests and
   returns the plan and bias notes and a per-member render.  Only
   [ac]/[noise] groups ever hold more than one request. *)

let decode_op _ req =
  let d = deck_of_request req in
  (d, opt_str_list (params req) "nodes")

let run_op t (d, nodes) =
  let compiled, plan_note = compiled_of t d in
  let bias = bias_note compiled in
  let dc = Flow.compiled_bias compiled in
  let nodes =
    match nodes with
    | Some ns -> ns
    | None ->
      Array.to_list (E.Mna.node_names (Flow.compiled_mna compiled))
      |> List.sort String.compare
  in
  let voltages = List.map (fun n -> (n, J.Num (E.Dc.voltage dc n))) nodes in
  (J.Obj [ ("voltages", J.Obj voltages) ], plan_note, bias)

(* sweep-shaped requests coalesce on (plan key, probe columns); the
   group shares one pool dispatch over the union of its frequencies *)
type sweep = {
  deck : deck;
  columns : string list;  (* AC probe nodes, or the noise output *)
  freqs : float array;
  contributions : bool;  (* noise only: render per-element PSDs *)
}

let sweep_key s = s.deck.key :: s.columns

let decode_ac _ req =
  let m = params req in
  let columns =
    match opt_str_list m "nodes" with
    | Some (_ :: _ as ns) -> ns
    | Some [] -> raise (Bad "\"nodes\" must not be empty")
    | None -> raise (Bad "missing required param \"nodes\"")
  in
  let deck = deck_of_request req in
  { deck; columns; freqs = freqs_of_params m; contributions = false }

let decode_noise _ req =
  let m = params req in
  let output = required "output" (opt_str m "output") in
  let deck = deck_of_request req in
  let contributions =
    Option.value (opt_bool m "contributions") ~default:false
  in
  { deck; columns = [ output ]; freqs = freqs_of_params m; contributions }

(* Byte-identity with one-by-one serving holds because the cached
   plan's pivot order is fixed by its first (master) factorization —
   every dispatch refills the same pattern numerically. *)
let sweep_group t sweeps solve =
  let leader = List.hd sweeps in
  let union =
    List.concat_map (fun s -> Array.to_list s.freqs) sweeps
    |> List.sort_uniq compare |> Array.of_list
  in
  let compiled, plan = compiled_of t leader.deck in
  let bias = bias_note compiled in
  let table = Hashtbl.create (Array.length union) in
  List.iter
    (fun (freq, v) -> Hashtbl.replace table freq v)
    (solve compiled leader.columns union);
  (plan, bias, table)

let run_ac t sweeps =
  let plan, bias, table =
    sweep_group t sweeps (fun compiled nodes freqs ->
        E.Ac.sweep_plan (Flow.compiled_ac_plan compiled) ~freqs ~nodes
        |> Array.to_list
        |> List.map (fun (pt : E.Ac.sweep_point) ->
               (pt.E.Ac.freq, pt.E.Ac.values)))
  in
  ( plan,
    bias,
    fun s ->
      J.Obj
        [ ("points", ac_points_json ~nodes:s.columns ~freqs:s.freqs table) ] )

let run_noise t sweeps =
  let plan, bias, table =
    sweep_group t sweeps (fun compiled columns freqs ->
        let dc = Flow.compiled_bias compiled in
        E.Noise.analyze_plan ~dc (Flow.compiled_ac_plan compiled)
          ~output:(List.hd columns) ~freqs
        |> List.map (fun (pt : E.Noise.point) -> (pt.E.Noise.freq, pt)))
  in
  ( plan,
    bias,
    fun s ->
      let total_rms =
        if Array.length s.freqs >= 2 then
          J.Num
            (E.Noise.total_rms
               (Array.to_list (Array.map (Hashtbl.find table) s.freqs)))
        else J.Null
      in
      J.Obj
        [
          ( "points",
            noise_points_json ~with_contributions:s.contributions
              ~freqs:s.freqs table );
          ("total_rms", total_rms);
        ] )

let decode_tran t req =
  let d = deck_of_request req in
  let m = params req in
  let tstop = required "tstop" (opt_float m "tstop")
  and dt = required "dt" (opt_float m "dt") in
  if tstop <= 0.0 || dt <= 0.0 then
    raise (Bad "\"tstop\" and \"dt\" must be > 0");
  (* compared as a float: a huge ratio must not wrap through
     int_of_float into a small count *)
  let n_points = Float.round (tstop /. dt) +. 1.0 in
  if n_points > float_of_int t.config.tran_max_points then
    raise
      (Bad
         (Printf.sprintf
            "%.0f points exceed the service limit of %d (raise \"dt\" or \
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
  (d, tstop, dt, options)

let run_tran t (d, tstop, dt, options) =
  let compiled, plan_note = compiled_of t d in
  let ds =
    E.Tran.simulate ~options ~tstop ~dt (Flow.compiled_netlist compiled)
  in
  let waves =
    Array.to_list
      (Array.mapi
         (fun k name -> (name, float_arr ds.E.Tran.data.(k)))
         ds.E.Tran.names)
  in
  ( J.Obj
      [
        ("times", float_arr ds.E.Tran.times);
        ("waves", J.Obj waves);
        ( "truncated",
          Option.fold ~none:J.Null ~some:E.Diag.to_json ds.E.Tran.truncated );
      ],
    plan_note,
    P.Not_applicable )

let decode_lint _ req =
  let d = deck_of_request req in
  let m = params req in
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
  (d, strict, config)

let run_lint t (d, strict, config) =
  let nl, _ = netlist_of t d in
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
type verify_subject = Deck of deck | Cache_dir of string | Plans

let decode_verify _ (req : P.request) =
  match (opt_str (params req) "cache_dir", req.P.source) with
  | Some _, Some _ -> raise (Bad "give a deck or \"cache_dir\", not both")
  | Some dir, None ->
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      raise (Bad (Printf.sprintf "cache_dir %S is not a directory" dir));
    Cache_dir dir
  | None, Some _ -> Deck (deck_of_request req)
  | None, None -> Plans

let run_verify t subject =
  let num i = J.Num (float_of_int i) in
  let header mode =
    [ ("schema_version", num A.Analyzer.schema_version); ("mode", J.Str mode) ]
  in
  let result =
    match subject with
    | Cache_dir dir ->
      let module SC = Sn_substrate.Cache in
      SC.verification_to_json
        ~header:(header "cache" @ [ ("dir", J.Str dir) ])
        (SC.verify_dir (SC.create ~dir))
    | Deck d ->
      (* the unreduced deck, dry-running the request's own reduction —
         the same verdict as `snoise verify --reduce-order K DECK` *)
      let nl, reduce = parsed t d in
      Flow.preflight_to_json ~header:(header "deck") (Flow.preflight ?reduce nl)
    | Plans ->
      let pv = Plan_cache.verify_plans t.cache in
      J.Obj
        (header "plans"
        @ [
            ("plans", num pv.Plan_cache.pv_plans);
            ("exact", num pv.Plan_cache.pv_exact);
            ("certified", num pv.Plan_cache.pv_certified);
            ("uncertified", num pv.Plan_cache.pv_uncertified);
            ("bad", num pv.Plan_cache.pv_bad);
            ("failing", J.Bool (pv.Plan_cache.pv_bad > 0));
          ])
  in
  (result, P.Not_applicable, P.Not_applicable)

let decode_extract _ req = snd (require_text req)

let run_extract t text =
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

type spur = {
  f_noise : float;
  vtune : float;
  p_noise_dbm : float;
  nx : int;
  ny : int;
}

let decode_spur _ req =
  let m = params req in
  let f_noise = required "f_noise" (opt_float m "f_noise") in
  if not (f_noise > 0.0) then raise (Bad "param \"f_noise\" must be > 0");
  let vtune = Option.value (opt_float m "vtune") ~default:0.45 in
  let p_noise_dbm = Option.value (opt_float m "p_noise_dbm") ~default:(-5.0) in
  let nx = Option.value (opt_int m "nx") ~default:48 in
  let ny = Option.value (opt_int m "ny") ~default:48 in
  if nx < 4 || ny < 4 then raise (Bad "\"nx\"/\"ny\" must be >= 4");
  { f_noise; vtune; p_noise_dbm; nx; ny }

let run_spur t s =
  let flow, note =
    Plan_cache.find_flow t.cache
      ~key:(Printf.sprintf "%.17g:%d:%d" s.vtune s.nx s.ny)
      ~build:(fun () ->
        let grid =
          { Flow.default_options.Flow.grid with
            Sn_substrate.Grid.nx = s.nx;
            ny = s.ny }
        in
        let options = { Flow.default_options with Flow.grid = grid } in
        Flow.build_vco ~options Sn_testchip.Vco_chip.default ~vtune:s.vtune)
  in
  let f_noise = s.f_noise in
  let h = Flow.vco_transfers flow ~f_noise:[| f_noise |] in
  let spur = Flow.vco_spur flow ~h ~p_noise_dbm:s.p_noise_dbm ~f_noise in
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
    with_lock t (fun () -> t.shed_plans <- t.shed_plans + dropped);
    Log.warn (fun m ->
        m "memory watermark: shed %d plan(s) and half the flows, compacting"
          dropped);
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
            ("macros", num cs.Plan_cache.macros);
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
            ("flows", num cs.Plan_cache.flows);
            ("flow_capacity", num cs.Plan_cache.flow_capacity);
            ("flow_evictions", num cs.Plan_cache.flow_evictions);
            ("flow_hits", num cs.Plan_cache.flow_hits);
            ("flow_misses", num cs.Plan_cache.flow_misses);
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
              Option.fold ~none:J.Null ~some:(fun d -> J.Str d)
                tile.Sn_substrate.Cache.dir );
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
            ("macros", num cs.Plan_cache.macros);
            ("flows", num cs.Plan_cache.flows);
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
(* dispatch: every queued request runs as a group *)

let bump table k v =
  let prev = Option.value (Hashtbl.find_opt table k) ~default:0.0 in
  Hashtbl.replace table k (prev +. v)

let count table k =
  let prev = Option.value (Hashtbl.find_opt table k) ~default:0 in
  Hashtbl.replace table k (prev + 1)

let note_reply t reply =
  with_lock t (fun () ->
      match reply with
      | J.Obj (("type", J.Str "error") :: _) ->
        t.errors_total <- t.errors_total + 1
      | _ -> t.responses_total <- t.responses_total + 1);
  reply

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

(* One verb's table entry for queued work.  Requests whose [coalesce]
   keys are equal (and whose deadlines are equal: a group cancels as a
   unit) share one group; a verb without a key runs every request as a
   group of one. *)
type 'a spec = {
  decode : t -> P.request -> 'a;
  coalesce : ('a -> string list) option;
  run : t -> 'a list -> P.cache_note * P.cache_note * ('a -> J.t);
}

(* Serve one group: the only place that guards, arms the deadline
   (from the earliest member's admission), times and counts a
   dispatch.  A group failure reaches every member under its own id. *)
let serve_group t spec (members : (pending * 'a) list) =
  let t0 = Unix.gettimeofday () in
  let leader = fst (List.hd members) in
  let verb = leader.req.P.verb in
  let n = List.length members in
  with_lock t (fun () ->
      t.dispatches <- t.dispatches + 1;
      t.coalesced <- t.coalesced + (n - 1));
  Log.debug (fun m -> m "dispatch %s: %d request(s)" (P.verb_name verb) n);
  let arrived =
    List.fold_left
      (fun acc ((p : pending), _) -> Float.min acc p.arrived)
      Float.infinity members
  in
  let outcome =
    guard_result ~id:J.Null (fun () ->
        fire_kill ();
        run_with_deadline t ~arrived ~deadline_ms:leader.req.P.deadline_ms
          (fun () -> spec.run t (List.map snd members)))
  in
  let elapsed_ms = finish_timing t verb t0 in
  match outcome with
  | Error failure ->
    List.map
      (fun ((p : pending), _) ->
        (p, note_reply t (with_id failure p.req.P.id)))
      members
  | Ok (plan_note, bias_note, render) ->
    List.mapi
      (fun i ((p : pending), d) ->
        (* the leader reports the real cache outcome; coalesced
           followers ran off the (by now resident) plan *)
        let plan, bias =
          if i = 0 then (plan_note, bias_note) else (P.Hit, P.Hit)
        in
        ( p,
          note_reply t
            (P.response ~id:p.req.P.id ~verb
               ~served:{ P.elapsed_ms; plan; bias; batched = n }
               (render d)) ))
      members

(* Decode each of one verb's queued requests once and group them by
   key.  Each job is tagged with the seq of its first member, so
   [drain] runs the groups of every verb in queue order. *)
let jobs_of t spec items =
  let groups = Hashtbl.create 8 in
  let jobs = ref [] in
  List.iter
    (fun (p : pending) ->
      match guard_result ~id:p.req.P.id (fun () -> spec.decode t p.req) with
      | Error reply ->
        jobs := (p.seq, fun () -> [ (p, note_reply t reply) ]) :: !jobs
      | Ok d -> (
        let key =
          Option.map (fun k -> (k d, p.req.P.deadline_ms)) spec.coalesce
        in
        match Option.bind key (Hashtbl.find_opt groups) with
        | Some members -> members := (p, d) :: !members
        | None ->
          let members = ref [ (p, d) ] in
          Option.iter (fun k -> Hashtbl.replace groups k members) key;
          let serve () = serve_group t spec (List.rev !members) in
          jobs := (p.seq, serve) :: !jobs))
    items;
  !jobs

type entry =
  | Answer of (t -> J.t)  (* answered at submit, never queued *)
  | Queued of
      (t -> pending list -> (int * (unit -> (pending * J.t) list)) list)

let queued ?coalesce decode run =
  Queued (fun t items -> jobs_of t { decode; coalesce; run } items)

(* a verb that never coalesces: its group is always one request *)
let alone decode run =
  queued decode (fun t members ->
      let result, plan, bias = run t (List.hd members) in
      (plan, bias, fun _ -> result))

(* the verb table *)
let entry = function
  | P.Op -> alone decode_op run_op
  | P.Ac -> queued ~coalesce:sweep_key decode_ac run_ac
  | P.Tran -> alone decode_tran run_tran
  | P.Noise -> queued ~coalesce:sweep_key decode_noise run_noise
  | P.Spur -> alone decode_spur run_spur
  | P.Lint -> alone decode_lint run_lint
  | P.Verify -> alone decode_verify run_verify
  | P.Extract -> alone decode_extract run_extract
  | P.Stats -> Answer stats_json
  | P.Ping -> Answer (fun _ -> J.Obj [])
  | P.Health -> Answer health_json
  | P.Shutdown -> Answer (fun _ -> J.Obj [ ("stopping", J.Bool true) ])

(* ------------------------------------------------------------------ *)
(* submit: parse, immediately answer control verbs and refusals, queue
   analysis work *)

(* Admission: when the heap (or the accounted plan cache) crosses the
   watermark, shed LRU state once, and if that was not enough answer
   busy instead of growing toward the OOM killer; then the bounded
   queue, then the per-client quota.  [None] means queued. *)
let admit t ~client req =
  let memory_ok =
    (not (over_watermark t)) || (try_shed t; not (over_watermark t))
  in
  let arrived = Unix.gettimeofday () in
  with_lock t (fun () ->
      let depth = Queue.length t.queue in
      let mine =
        Option.value (Hashtbl.find_opt t.per_client client) ~default:0
      in
      if not memory_ok then begin
        t.rejected_memory <- t.rejected_memory + 1;
        t.rejected_busy <- t.rejected_busy + 1;
        Some
          ( P.Busy,
            Printf.sprintf
              "memory pressure: %.0f MB exceeds the %d MB watermark"
              (mem_pressure_mb t) t.config.mem_watermark_mb )
      end
      else if depth >= t.config.max_queue then begin
        t.rejected_busy <- t.rejected_busy + 1;
        Some
          (P.Busy, Printf.sprintf "queue full (%d requests)" t.config.max_queue)
      end
      else if mine >= t.config.client_quota then begin
        t.rejected_quota <- t.rejected_quota + 1;
        Some
          ( P.Quota_exceeded,
            Printf.sprintf "client has %d requests queued (quota %d)"
              t.config.client_quota t.config.client_quota )
      end
      else begin
        t.seq <- t.seq + 1;
        Queue.add { seq = t.seq; client; arrived; req } t.queue;
        Hashtbl.replace t.per_client client (mine + 1);
        t.max_depth <- max t.max_depth (depth + 1);
        None
      end)

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
      let verb = req.P.verb in
      with_lock t (fun () -> count t.verb_counts (P.verb_name verb));
      match entry verb with
      | Answer answer ->
        let reply =
          note_reply t
            (P.response ~id:req.P.id ~verb
               ~served:
                 { P.elapsed_ms = 0.0; plan = P.Not_applicable;
                   bias = P.Not_applicable; batched = 1 }
               (answer t))
        in
        if verb = P.Shutdown then `Shutdown reply else `Replied reply
      | Queued _ -> (
        match admit t ~client req with
        | None -> `Queued
        | Some (code, msg) ->
          `Replied
            (note_reply t
               (P.error ~id:req.P.id
                  ~data:[ ("retry_after_ms", J.Num 100.0) ]
                  code msg)))))

(* ------------------------------------------------------------------ *)
(* drain: execute everything queued, one group at a time *)

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
  List.concat_map
    (fun verb ->
      match entry verb with
      | Answer _ -> []
      | Queued jobs ->
        jobs t (List.filter (fun (p : pending) -> p.req.P.verb = verb) items))
    P.verbs
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.concat_map (fun (_, serve) -> serve ())
  |> List.sort (fun ((a : pending), _) ((b : pending), _) ->
         Int.compare a.seq b.seq)
  |> List.map (fun ((p : pending), reply) -> (p.client, reply))

(* Replay the warmup journal into the plan cache (most recent
   [max_decks] unique decks), then compact the file to exactly those
   entries.  Failures are counted, not raised: a deck that stopped
   compiling only costs its own warmth. *)
let warm_from_journal t =
  match t.journal with
  | None -> (0, 0)
  | Some j ->
    let decks =
      List.map
        (fun (e : Journal.entry) ->
          (e, deck_of_text (P.Inline e.Journal.text) e.Journal.text
                e.Journal.overrides))
        (Journal.replay ~path:(Journal.path j))
    in
    let seen = Hashtbl.create 16 in
    let unique =
      List.rev decks
      |> List.filter (fun (_, d) ->
             if Hashtbl.mem seen d.key then false
             else begin
               Hashtbl.replace seen d.key ();
               true
             end)
      |> List.filteri (fun i _ -> i < t.config.max_decks)
      |> List.rev
    in
    t.journaling <- false;
    let ok = ref 0 and failed = ref 0 in
    List.iter
      (fun (_, d) ->
        match compiled_of t d with
        | _ -> incr ok
        | exception _ -> incr failed)
      unique;
    t.journaling <- true;
    List.iter (fun (_, d) -> Hashtbl.replace t.journaled d.key ()) unique;
    with_lock t (fun () -> t.journal_replayed <- !ok);
    if unique <> [] then Journal.rewrite j (List.map fst unique);
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
