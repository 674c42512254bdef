(* Mixed service traffic through the in-process serving core
   ([Service.submit] / [Service.drain], the calls the socket reactor
   makes).  A closed loop with one generator: each round submits a
   seeded burst of 1-4 request lines under distinct client ids, as one
   reactor tick would, then drains; a request's latency runs from the
   round's start to its reply, so queue wait and coalescing show. *)

open Common
module J = Sn_server.Json
module Sv = Sn_server.Service

(* A seeded RC mesh of [nx * ny] nodes driven at one corner: the "few
   hundred nodes" decks a design client keeps resident. *)
type deck = {
  text : string;  (** JSON-quoted SPICE text, ready to splice *)
  probes : string list;  (** far corner first *)
  resistors : string list;
}

let mesh rng ~nx ~ny =
  let b = Buffer.create 32768 in
  let node i j = Printf.sprintf "n%d_%d" i j in
  let resistors = ref [] in
  let uniform lo hi = lo +. Random.State.float rng (hi -. lo) in
  let r name a c =
    resistors := name :: !resistors;
    Printf.bprintf b "%s %s %s %.4g\n" name a c (uniform 50.0 500.0)
  in
  Printf.bprintf b "* snbench RC mesh %dx%d\nv1 in 0 dc 1 ac 1\nrin in %s 50\n"
    nx ny (node 0 0);
  for i = 0 to nx - 1 do
    for j = 0 to ny - 1 do
      if i + 1 < nx then
        r (Printf.sprintf "rh%d_%d" i j) (node i j) (node (i + 1) j);
      if j + 1 < ny then
        r (Printf.sprintf "rv%d_%d" i j) (node i j) (node i (j + 1));
      Printf.bprintf b "c%d_%d %s 0 %.4gp\n" i j (node i j) (uniform 0.5 2.0)
    done
  done;
  Printf.bprintf b "rload %s 0 1k\n.end\n" (node (nx - 1) (ny - 1));
  {
    text = J.to_string (J.Str (Buffer.contents b));
    probes = [ node (nx - 1) (ny - 1); node (nx / 2) (ny / 2); node 0 (ny - 1) ];
    resistors = List.rev !resistors;
  }

type kind = Ac_hit | Noise | Op | Ac_write | Lint | Verify | Spur

let kind_name = function
  | Ac_hit -> "ac"
  | Noise -> "noise"
  | Op -> "op"
  | Ac_write -> "ac+override"
  | Lint -> "lint"
  | Verify -> "verify"
  | Spur -> "spur"

(* Per 50 requests: mostly plan-hit ac reads, about 10% ac writes whose
   fresh element override misses the plan cache and recompiles,
   lint/verify of the exported VCO deck, and spur at the primed
   vtune.  10 of the 50 carry a generous deadline, so the cancellation
   path is armed. *)
let block_mix =
  [ (Ac_hit, 26); (Noise, 5); (Op, 5); (Ac_write, 5); (Lint, 3); (Verify, 2);
    (Spur, 4) ]

let block_bursts = List.concat (List.init 5 (fun _ -> [ 1; 2; 3; 4 ]))
let deadlines_per_block = 10
let spur_vtune = 0.45

(* The plan-cache bound ([snoise serve --max-decks]).  Override writes
   fill it within the first few blocks; after that every write evicts
   the least recently used plan, so memory and eviction work are the
   same in every run whatever its length. *)
let max_decks = 32

type world = {
  decks : deck array;
  vco_deck : string;  (** JSON-quoted exported merged VCO deck *)
  mutable next_id : int;
}

let span rng points =
  Printf.sprintf {|"fstart": %.6g, "fstop": %.6g, "points": %d|}
    (log_uniform rng 1.0e5 1.0e6) (log_uniform rng 1.0e8 1.0e9) points

let request w rng kind ~deadline =
  let id = w.next_id in
  w.next_id <- id + 1;
  let d = w.decks.(Random.State.int rng (Array.length w.decks)) in
  let out = List.hd d.probes in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let nodes () =
    let ns = if Random.State.bool rng then [ out ] else d.probes in
    J.to_string (J.Arr (List.map (fun n -> J.Str n) ns))
  in
  let dl = if deadline then {|, "deadline_ms": 60000|} else "" in
  let line =
    match kind with
    | Ac_hit ->
      Printf.sprintf
        {|{"id": %d, "verb": "ac", "deck": %s, "params": {"nodes": %s, %s}%s}|}
        id d.text (nodes ()) (span rng 20) dl
    | Noise ->
      Printf.sprintf
        {|{"id": %d, "verb": "noise", "deck": %s, "params": {"output": %S, %s}%s}|}
        id d.text out (span rng 10) dl
    | Op ->
      Printf.sprintf
        {|{"id": %d, "verb": "op", "deck": %s, "params": {"nodes": [%S]}%s}|}
        id d.text out dl
    | Ac_write ->
      let r = pick d.resistors in
      let ohms = log_uniform rng 50.0 500.0 in
      Printf.sprintf
        {|{"id": %d, "verb": "ac", "deck": %s, "overrides": {%S: %.6g}, %s}|}
        id d.text r ohms
        (Printf.sprintf {|"params": {"nodes": [%S], %s}%s|} out (span rng 20) dl)
    | Lint ->
      Printf.sprintf {|{"id": %d, "verb": "lint", "deck": %s%s}|} id
        w.vco_deck dl
    | Verify ->
      Printf.sprintf {|{"id": %d, "verb": "verify", "deck": %s%s}|} id
        w.vco_deck dl
    | Spur ->
      Printf.sprintf
        {|{"id": %d, "verb": "spur", "params": {"f_noise": %.6g, "vtune": %g}%s}|}
        id (log_uniform rng 1.0e6 15.0e6) spur_vtune dl
  in
  (id, kind, line)

(* One block of 50 requests, cut into seeded bursts. *)
let block w rng =
  let kinds =
    List.concat_map (fun (k, n) -> List.init n (fun _ -> k)) block_mix
  in
  let deadlines =
    List.init (List.length kinds) (fun i -> i < deadlines_per_block)
  in
  let reqs =
    List.map2
      (fun k deadline -> request w rng k ~deadline)
      (shuffle rng kinds) (shuffle rng deadlines)
  in
  let rec cut reqs = function
    | [] -> []
    | n :: rest ->
      List.filteri (fun i _ -> i < n) reqs
      :: cut (List.filteri (fun i _ -> i >= n) reqs) rest
  in
  cut reqs (shuffle rng block_bursts)

(* What a session measured of the server layer itself. *)
type layer = {
  mutable parse_ms : float list;
  mutable submit_ms : float list;
  mutable drain_ms : float list;
  mutable queue_wait_ms : float list;
  mutable batched : float list;
  mutable bias_hits : int;
  mutable bias_lookups : int;
  mutable plan_hit_ratio : float;  (** [stats_json] deltas over the session *)
  mutable flow_hit_ratio : float;
}

let member path j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path

let is_response r = member [ "type" ] r = Some (J.Str "response")
let result_bytes r = Option.map J.to_string (member [ "result" ] r)
let ms_since t0 = (now () -. t0) *. 1000.0

(* Serve one round.  Returns [(id, kind, line, latency_ms, reply)] for
   every request of the burst. *)
let round svc l burst =
  let t0 = now () in
  let immediate = Hashtbl.create 4 in
  List.iteri
    (fun i (id, _, line) ->
      if !Trace.armed then begin
        let parsed, dt =
          time (fun () -> Trace.span "server.parse" (fun () -> J.parse line))
        in
        check (Result.is_ok parsed) "request %d is not valid JSON" id;
        l.parse_ms <- (dt *. 1000.0) :: l.parse_ms
      end;
      let r, dt =
        time (fun () ->
            Trace.span "server.submit" (fun () ->
                Sv.submit svc ~client:(i + 1) line))
      in
      l.submit_ms <- (dt *. 1000.0) :: l.submit_ms;
      match r with
      | `Queued -> ()
      | `Replied j | `Shutdown j ->
        Hashtbl.replace immediate (i + 1) (ms_since t0, j))
    burst;
  let replies, dt =
    time (fun () ->
        Trace.span "server.drain" (fun () ->
            Counters.pool (fun () -> Sv.drain svc)))
  in
  let drained = ms_since t0 in
  l.drain_ms <- (dt *. 1000.0) :: l.drain_ms;
  List.mapi
    (fun i (id, kind, line) ->
      let client = i + 1 in
      let lat, reply =
        match Hashtbl.find_opt immediate client with
        | Some v -> v
        | None ->
          (drained, Option.value ~default:J.Null (List.assoc_opt client replies))
      in
      let served k = member [ "served"; k ] reply in
      (match served "elapsed_ms" with
      | Some (J.Num e) ->
        l.queue_wait_ms <- Float.max 0.0 (lat -. e) :: l.queue_wait_ms
      | _ -> ());
      (match served "batched" with
      | Some (J.Num n) -> l.batched <- n :: l.batched
      | _ -> ());
      (match served "bias" with
      | Some (J.Str note) ->
        l.bias_lookups <- l.bias_lookups + 1;
        if note = "hit" then l.bias_hits <- l.bias_hits + 1
      | _ -> ());
      (id, kind, line, lat, reply))
    burst

(* ------------------------------------------------------------------ *)

(* The merged VCO deck as [snoise netlist] exports it, with the lint
   error counts of the re-parsed text and of the in-memory model. *)
let export_vco () =
  let flow =
    Snoise.Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:spur_vtune
  in
  let merged = Snoise.Flow.vco_merged flow in
  let text = Sn_circuit.Spice.to_string merged in
  let errors nl =
    List.length
      (Sn_analysis.Analyzer.errors (Sn_analysis.Analyzer.analyze nl))
  in
  ( J.to_string (J.Str text),
    errors (Sn_circuit.Spice.of_string text),
    errors merged )

(* Set-up: the seeded decks, the exported VCO deck (a substrate
   extraction against the tile cache [tiles]), and a service primed
   with every deck's plan and the spur flow at [spur_vtune] (a
   tile-cache hit).  Also returns the exported deck's lint error
   counts. *)
let setup (s : settings) rng ~tiles =
  Sn_substrate.Cache.set_default_dir (Some tiles);
  Snoise.Sweep.set_jobs s.jobs;
  let decks =
    [| mesh rng ~nx:14 ~ny:14; mesh rng ~nx:16 ~ny:16; mesh rng ~nx:18 ~ny:18 |]
  in
  let vco_deck, reparsed, in_memory = export_vco () in
  let w = { decks; vco_deck; next_id = 0 } in
  let svc = Sv.create ~config:{ Sv.default_config with Sv.max_decks } () in
  let prime line =
    incr attempted;
    match Sv.handle svc ~client:1 line with
    | [ r ] when is_response r -> ()
    | rs ->
      fail "priming request refused: %s"
        (String.concat " " (List.map J.to_string rs))
  in
  Array.iter
    (fun d ->
      let out = List.hd d.probes in
      let params = Printf.sprintf {|"freqs": [1e6], "nodes": [%S]|} out in
      prime
        (Printf.sprintf {|{"verb": "ac", "deck": %s, "params": {%s}}|} d.text
           params);
      prime
        (Printf.sprintf
           {|{"verb": "noise", "deck": %s, "params": {"freqs": [1e6], |}
           d.text
        ^ Printf.sprintf {|"output": %S}}|} out))
    decks;
  prime
    (Printf.sprintf
       {|{"verb": "spur", "params": {"f_noise": 1e7, "vtune": %g}}|}
       spur_vtune);
  (w, svc, (reparsed, in_memory))

let stats_counts svc =
  let stats = Sv.stats_json svc in
  let n k =
    match member [ "plan_cache"; k ] stats with Some (J.Num v) -> v | _ -> 0.0
  in
  (n "plan_hits", n "plan_misses", n "flow_hits", n "flow_misses")

(* Keeps a seeded uniform sample of [per_kind] served requests of each
   kind (reservoir sampling), so the re-serve check needs no record of
   every request line. *)
let per_kind = 3

let keep_sample rng sample seen ((_, kind, _, _) as r) =
  let n = 1 + Option.value ~default:0 (Hashtbl.find_opt seen kind) in
  Hashtbl.replace seen kind n;
  let slots = Option.value ~default:[||] (Hashtbl.find_opt sample kind) in
  if n <= per_kind then Hashtbl.replace sample kind (Array.append slots [| r |])
  else
    let j = Random.State.int rng n in
    if j < per_kind then slots.(j) <- r

(* Serve blocks until [seconds] pass (at least one) and check every
   reply.  Returns the per-block walls, the phase's wall and CPU time,
   the latencies, the re-serve sample, and the layer record. *)
let session ~seconds w svc rng =
  let ph0, pm0, fh0, fm0 = stats_counts svc in
  let l =
    { parse_ms = []; submit_ms = []; drain_ms = []; queue_wait_ms = [];
      batched = []; bias_hits = 0; bias_lookups = 0; plan_hit_ratio = 0.0;
      flow_hit_ratio = 0.0 }
  in
  let lat = ref [] in
  let sample_rng = Random.State.make [| Random.State.bits rng |] in
  let sample = Hashtbl.create 8 and seen = Hashtbl.create 8 in
  let serve (id, kind, line, ms, reply) =
    incr attempted;
    lat := ms :: !lat;
    if is_response reply then
      keep_sample sample_rng sample seen (id, kind, line, reply)
    else
      fail "request %d (%s) answered %s" id (kind_name kind)
        (J.to_string reply)
  in
  let walls, elapsed, cpu =
    passes ~seconds (fun () ->
        List.iter
          (fun burst -> List.iter serve (round svc l burst))
          (block w rng))
  in
  let ph, pm, fh, fm = stats_counts svc in
  let ratio h m = if h +. m > 0.0 then h /. (h +. m) else 0.0 in
  l.plan_hit_ratio <- ratio (ph -. ph0) (pm -. pm0);
  l.flow_hit_ratio <- ratio (fh -. fh0) (fm -. fm0);
  let sample =
    List.concat_map
      (fun (k, _) ->
        Array.to_list (Option.value ~default:[||] (Hashtbl.find_opt sample k)))
      block_mix
  in
  (walls, elapsed, cpu, List.rev !lat, sample, l)

(* Re-serve the sample alone on a fresh service with a pool of width 1:
   batching, caching and pool width must not change a result's
   bytes. *)
let reserve (s : settings) sample =
  Snoise.Sweep.set_jobs 1;
  let fresh = Sv.create () in
  List.iter
    (fun (id, kind, line, reply) ->
      match Sv.handle fresh ~client:1 line with
      | [ alone ] ->
        check
          (result_bytes alone = result_bytes reply)
          "request %d (%s) re-served alone at jobs 1 differs" id
          (kind_name kind)
      | _ ->
        fail "request %d (%s) re-served alone gave no single reply" id
          (kind_name kind))
    sample;
  Snoise.Sweep.set_jobs s.jobs;
  List.length sample

type outcome = { m : measurement; layer : layer; reserved : int }

let run (s : settings) =
  let rng = Random.State.make [| s.seed |] in
  let (w, svc, (reparsed, in_memory)), setup_s =
    time (fun () ->
        Trace.span "setup" (fun () ->
            setup s rng ~tiles:(fresh_dir s.work ("tiles-" ^ s.workload))))
  in
  (* Known defect, recorded rather than worked around: [Merge] prefixes
     interconnect elements with "itc_" and the SPICE reader takes an
     element's kind from its first letter, so every itc_R / itc_C
     re-parses as a current source and lint reports false
     no-ground-path errors on the exported deck.  That deck therefore
     carries only lint/verify traffic. *)
  Printf.printf
    "known-defect exported VCO deck: %d lint errors re-parsed, %d in memory\n"
    reparsed in_memory;
  Counters.mark_setup ();
  let walls, elapsed, cpu, lat, sample, layer =
    Trace.span "timed" (fun () -> session ~seconds:s.seconds w svc rng)
  in
  Counters.mark_timed ();
  let reserved = reserve s sample in
  {
    m =
      { setup_s; walls; elapsed; cpu; lat_ms = lat;
        tile_cache = "fresh directory, one extraction in set-up" };
    layer;
    reserved;
  }
