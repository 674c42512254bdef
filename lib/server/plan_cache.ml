(* LRU bookkeeping: every lookup stamps the entry with a monotonically
   increasing tick; eviction scans for the minimum stamp.  The scan is
   O(entries) but entries are bounded by max_decks (default 128) and
   eviction only runs on insertion past the bound — invisible next to
   a single Newton iteration. *)

type 'a entry = { value : 'a; mutable last_use : int; words : int }

(* what one plans-table slot holds: the compiled plan, and — when the
   deck went through model-order reduction on the way in — the reduced
   pool model and its passivity certificates, stored alongside so a
   resident plan's pencil re-verifies by hashing alone (the server's
   verify verb), never by recompiling *)
type certified_plan = {
  cp_plan : Snoise.Flow.compiled;
  cp_reduced : Snoise.Reduced_model.t option;
  cp_cert :
    (Sn_numerics.Passivity.cert * Sn_numerics.Passivity.cert) option;
}

type t = {
  lock : Mutex.t;
  max_decks : int;
  mutable tick : int;
  netlists : (string, Sn_circuit.Netlist.t entry) Hashtbl.t;
  plans : (string, certified_plan entry) Hashtbl.t;
  macros : (string, Sn_substrate.Macromodel.t entry) Hashtbl.t;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable parse_hits : int;
  mutable parse_misses : int;
  mutable macro_hits : int;
  mutable macro_misses : int;
  mutable evictions : int;
}

let create ?(max_decks = 128) () =
  {
    lock = Mutex.create ();
    max_decks = max 1 max_decks;
    tick = 0;
    netlists = Hashtbl.create 64;
    plans = Hashtbl.create 64;
    macros = Hashtbl.create 16;
    plan_hits = 0;
    plan_misses = 0;
    parse_hits = 0;
    parse_misses = 0;
    macro_hits = 0;
    macro_misses = 0;
    evictions = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t entry =
  t.tick <- t.tick + 1;
  entry.last_use <- t.tick

let deck_key ~text ~overrides =
  let canonical =
    List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) overrides
    |> String.concat ";"
  in
  Digest.to_hex
    (Digest.string
       (* v2: compiled plans carry pre-flight artifacts (reduction
          certificates); bumping the key namespace invalidates every
          v1 journal entry and warm key instead of mixing formats *)
       (Printf.sprintf "snoise-plan-v2\n%d:%s\n%s" (String.length text) text
          canonical))

let text_key text =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "snoise-parse-v1\n%d:%s" (String.length text) text))

(* layered find: probe under the lock, compute outside it (a compile
   or extraction can take seconds and must not serialize unrelated
   requests), publish under the lock.  Two racing misses both compute;
   the second publish wins harmlessly — entries are pure values of
   their key. *)
let find_generic ?(weigh = fun _ -> 0) t table ~key ~(compute : unit -> 'a)
    ~hit ~miss ~(evict : unit -> unit) =
  let cached =
    with_lock t (fun () ->
        match Hashtbl.find_opt table key with
        | Some e ->
          touch t e;
          hit ();
          Some e.value
        | None ->
          miss ();
          None)
  in
  match cached with
  | Some v -> (v, Protocol.Hit)
  | None ->
    let v = compute () in
    let words = weigh v in
    with_lock t (fun () ->
        t.tick <- t.tick + 1;
        Hashtbl.replace table key { value = v; last_use = t.tick; words };
        evict ());
    (v, Protocol.Miss)

(* caller holds the lock: drop least-recently-used entries of [table]
   until at most [keep] remain, returning how many went *)
let trim_lru table ~keep =
  let dropped = ref 0 in
  while Hashtbl.length table > max 0 keep do
    let victim = ref None in
    Hashtbl.iter
      (fun k e ->
        match !victim with
        | Some (_, age) when age <= e.last_use -> ()
        | _ -> victim := Some (k, e.last_use))
      table;
    Option.iter
      (fun (k, _) ->
        Hashtbl.remove table k;
        incr dropped)
      !victim
  done;
  !dropped

(* caller holds the lock; returns how many plans went *)
let evict_down t ~keep =
  let dropped = trim_lru t.plans ~keep in
  t.evictions <- t.evictions + dropped;
  (* keep the parse layer from outliving every plan that used it *)
  ignore (trim_lru t.netlists ~keep:(2 * t.max_decks));
  ignore (trim_lru t.macros ~keep:(min keep t.max_decks));
  dropped

let evict_lru t = ignore (evict_down t ~keep:t.max_decks)

(* memory-pressure shedding: drop LRU plans (and macromodels) down to
   [keep], returning how many plans went.  The freed words only leave the process after a
   compaction — the service pairs this with [Gc.compact]. *)
let shed t ~keep = with_lock t (fun () -> evict_down t ~keep)

let plan_words t =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ e acc -> acc + e.words) t.plans 0)

let find_netlist t ~text ~parse =
  let key = text_key text in
  fst
    (find_generic t t.netlists ~key
       ~compute:(fun () -> parse text)
       ~hit:(fun () -> t.parse_hits <- t.parse_hits + 1)
       ~miss:(fun () -> t.parse_misses <- t.parse_misses + 1)
       ~evict:(fun () -> evict_lru t))

let find_compiled t ~key ~compile =
  (* weigh each resident plan once at insert so the service's memory
     watermark can account for cache growth without a heap walk per
     request *)
  find_generic t t.plans ~key ~compute:compile
    ~weigh:(fun v -> Obj.reachable_words (Obj.repr v))
    ~hit:(fun () -> t.plan_hits <- t.plan_hits + 1)
    ~miss:(fun () -> t.plan_misses <- t.plan_misses + 1)
    ~evict:(fun () -> evict_lru t)

let find_macro t ~text ~extract =
  let key = text_key text in
  find_generic t t.macros ~key ~compute:extract
    ~hit:(fun () -> t.macro_hits <- t.macro_hits + 1)
    ~miss:(fun () -> t.macro_misses <- t.macro_misses + 1)
    ~evict:(fun () -> evict_lru t)

(* certificate re-verification of every resident plan: hash-only
   (Reduced_model.verify_certificate), no compile, no factorization.
   [pv_bad] > 0 means an in-memory pencil no longer matches its own
   signature — memory corruption or a logic bug, either way the plan
   cannot be trusted. *)
type plan_verification = {
  pv_plans : int;
  pv_exact : int;  (** resident plans that never went through reduction *)
  pv_certified : int;
  pv_uncertified : int;
      (** reduced at compile time but certification was refused *)
  pv_bad : int;
}

let verify_plans t =
  let entries =
    with_lock t (fun () ->
        Hashtbl.fold (fun _ e acc -> e.value :: acc) t.plans [])
  in
  let v =
    {
      pv_plans = List.length entries;
      pv_exact = 0;
      pv_certified = 0;
      pv_uncertified = 0;
      pv_bad = 0;
    }
  in
  List.fold_left
    (fun v cp ->
      match (cp.cp_reduced, cp.cp_cert) with
      | None, _ -> { v with pv_exact = v.pv_exact + 1 }
      | Some _, None -> { v with pv_uncertified = v.pv_uncertified + 1 }
      | Some m, Some cert ->
        if Snoise.Reduced_model.verify_certificate m cert then
          { v with pv_certified = v.pv_certified + 1 }
        else { v with pv_bad = v.pv_bad + 1 })
    v entries

type stats = {
  plans : int;
  macros : int;
  certified_plans : int;
  plan_words : int;
  plan_hits : int;
  plan_misses : int;
  parse_hits : int;
  parse_misses : int;
  macro_hits : int;
  macro_misses : int;
  evictions : int;
}

let stats t =
  with_lock t (fun () ->
      {
        plans = Hashtbl.length t.plans;
        macros = Hashtbl.length t.macros;
        certified_plans =
          Hashtbl.fold
            (fun _ e acc -> if e.value.cp_cert <> None then acc + 1 else acc)
            t.plans 0;
        plan_words =
          Hashtbl.fold (fun _ e acc -> acc + e.words) t.plans 0;
        plan_hits = t.plan_hits;
        plan_misses = t.plan_misses;
        parse_hits = t.parse_hits;
        parse_misses = t.parse_misses;
        macro_hits = t.macro_hits;
        macro_misses = t.macro_misses;
        evictions = t.evictions;
      })

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.netlists;
      Hashtbl.reset t.plans;
      Hashtbl.reset t.macros)

let reset_counters t =
  with_lock t (fun () ->
      t.plan_hits <- 0;
      t.plan_misses <- 0;
      t.parse_hits <- 0;
      t.parse_misses <- 0;
      t.macro_hits <- 0;
      t.macro_misses <- 0;
      t.evictions <- 0)
