(** In-memory content-addressed cache of compiled simulation
    artifacts — what keeps a resident [snoise serve] process hot.

    Four layers, each one {!Sn_rf.Lru} reached through the same
    find-compute-publish path (probe under the lock, compute outside
    it, publish under the lock), and all keyed by {e content} so a
    stale hit is impossible (the same discipline as the on-disk
    {!Sn_substrate.Cache} for substrate extractions):

    - {b parse layer}: deck text digest -> parsed
      {!Sn_circuit.Netlist.t}.  Editing a deck file changes its
      digest, which is the whole invalidation story.
    - {b plan layer}: (deck text digest, canonical overrides) ->
      {!Snoise.Flow.compiled} — the lint verdict, MNA structure and
      compiled stamp plan.  The {!Snoise.Flow.compiled} value itself
      memoizes the DC bias and the complex AC plan, so the
      (deck, bias point) -> [Ac_plan] mapping rides on this layer.
    - {b macro layer}: layout text digest -> extracted substrate
      macromodel (the [extract] verb).
    - {b flow layer}: the caller's [(vtune, grid)] key -> built VCO
      flow (the [spur] verb).

    The plan and macro layers each hold at most [max_decks] entries,
    the parse layer twice that (it only exists to de-duplicate work
    between override variants of one deck), and the flow layer
    [max_flows]; each evicts least-recently-used beyond its bound.
    All operations are thread-safe. *)

type t

val create : ?max_decks:int -> ?max_flows:int -> unit -> t
(** [create ()] builds an empty cache holding at most [max_decks]
    (default 128) compiled plans and as many extracted macromodels,
    and at most [max_flows] (default 8) VCO flows. *)

val deck_key : text:string -> overrides:(string * float) list -> string
(** The plan-layer key: a digest over the deck text and the
    canonically-rendered (sorted) overrides.  Exposed so tests and
    [docs/SERVER.md] can state the cache-key semantics precisely. *)

val find_netlist :
  t -> text:string -> parse:(string -> Sn_circuit.Netlist.t) ->
  Sn_circuit.Netlist.t
(** [find_netlist t ~text ~parse] returns the cached parse of [text]
    or runs [parse text] and caches it.  Parser exceptions propagate
    and cache nothing. *)

(** One plan-layer entry: the compiled plan, stored alongside the
    reduced pool model and its passivity certificates when the deck
    went through model-order reduction on the way in ([None]/[None]
    for an unreduced deck).  The certificates let {!verify_plans}
    re-judge a warm plan by hashing alone. *)
type certified_plan = {
  cp_plan : Snoise.Flow.compiled;
  cp_reduced : Snoise.Reduced_model.t option;
  cp_cert :
    (Sn_numerics.Passivity.cert * Sn_numerics.Passivity.cert) option;
}

val find_compiled :
  t -> key:string -> compile:(unit -> certified_plan) ->
  certified_plan * Protocol.cache_note
(** [find_compiled t ~key ~compile] returns the cached compiled deck
    for [key] (a {!deck_key}) and {!Protocol.Hit}, or runs [compile]
    and caches its result with {!Protocol.Miss}.  A [compile] that
    raises (lint refusal, bad deck) caches nothing, so a fixed deck
    re-compiles cleanly. *)

(** {2 Certificate verification} — the plan-cache half of the server's
    [verify] verb. *)

type plan_verification = {
  pv_plans : int;  (** resident plans judged *)
  pv_exact : int;  (** never reduced: nothing to certify *)
  pv_certified : int;  (** certificate re-verified against the pencil *)
  pv_uncertified : int;
      (** reduced, but certification was refused at compile time *)
  pv_bad : int;  (** stored certificate no longer matches its pencil *)
}

val verify_plans : t -> plan_verification
(** Re-verify every resident plan's reduction certificate
    ({!Snoise.Reduced_model.verify_certificate}: hashing only — no
    compile, no factorization).  A healthy cache has [pv_bad = 0]. *)

val find_macro :
  t -> text:string ->
  extract:(unit -> Sn_substrate.Macromodel.t) ->
  Sn_substrate.Macromodel.t * Protocol.cache_note
(** Layout-extraction layer, keyed by layout text digest and bounded
    by [max_decks] with the plan layer's LRU rule. *)

val find_flow :
  t -> key:string -> build:(unit -> Snoise.Flow.vco_flow) ->
  Snoise.Flow.vco_flow * Protocol.cache_note
(** VCO-flow layer for the [spur] verb, keyed by the caller's
    [(vtune, grid)] rendering and bounded by [max_flows]. *)

(** Monotonic hit/miss/eviction counters, exposed in the server's
    [stats] reply. *)
type stats = {
  plans : int;  (** compiled plans currently resident *)
  macros : int;  (** extracted macromodels currently resident *)
  flows : int;  (** VCO flows currently resident *)
  flow_capacity : int;  (** the flow layer's bound ([max_flows]) *)
  certified_plans : int;
      (** resident plans carrying a reduction passivity certificate *)
  plan_words : int;
      (** accounted heap words of the resident plans (weighed once at
          insert with [Obj.reachable_words]) — the plan-size half of
          the service's memory watermark *)
  plan_hits : int;
  plan_misses : int;
  parse_hits : int;
  parse_misses : int;
  macro_hits : int;
  macro_misses : int;
  flow_hits : int;
  flow_misses : int;
  evictions : int;  (** LRU evictions from the plan layer *)
  flow_evictions : int;  (** LRU evictions from the flow layer *)
}

val stats : t -> stats

val plan_words : t -> int
(** Accounted heap words of the resident plan layer (see
    {!stats.plan_words}). *)

val shed : t -> keep:int -> int
(** [shed t ~keep] drops least-recently-used plans, and
    least-recently-used macromodels, until at most [keep] of each
    remain, and the least-recently-used half of the VCO flows,
    returning how many plans were evicted.  Called by the
    service when the memory watermark is crossed; the freed words
    leave the process on the next compaction. *)

val clear : t -> unit
(** Drop every entry (the bench's cold-cache mode).  Counters are
    preserved. *)
