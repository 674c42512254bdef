(** The [snoise serve] wire protocol: typed requests and the response
    constructors.

    The wire format is line-delimited JSON (JSONL): every message is
    one JSON object on one line, and every request produces exactly
    one reply on the same connection, in per-client request order.
    Three message types exist on the wire — [request] (client to
    server), [response] and [error] (server to client); [stats] and
    [ping] are request verbs, not separate message types.  The full
    schema, an annotated session transcript and the error catalogue
    live in [docs/SERVER.md]; this module is the single point where
    those bytes are produced and consumed, so the doc and the
    implementation cannot drift apart silently. *)

open Sn_json

(** What a request asks for.  Analysis verbs ([Op] … [Extract]) may do
    real solver work and go through the service queue; control verbs
    ([Stats], [Ping], [Health], [Shutdown]) are answered immediately
    and never queue. *)
type verb =
  | Op  (** DC operating point of a deck *)
  | Ac  (** small-signal sweep: frequencies x nodes *)
  | Tran  (** transient integration *)
  | Noise  (** output-referred noise PSD (adjoint method) *)
  | Spur  (** VCO substrate-spur prediction (built-in test chip) *)
  | Lint  (** structural ERC report of a deck *)
  | Verify
      (** numerical pre-flight of a deck, or certificate verification
          of a tile-cache directory ([params.cache_dir]) or of the
          resident plan cache (no source, no [cache_dir]) *)
  | Extract  (** substrate macromodel of a layout *)
  | Stats  (** server / cache / queue / pool counters *)
  | Ping  (** liveness probe *)
  | Health
      (** liveness + readiness: queue depth, pool width, cache and
          memory pressure, supervisor restart count *)
  | Shutdown  (** orderly server stop (the last reply on the wire) *)

val verb_name : verb -> string
(** Stable lower-case wire name, e.g. ["ac"]. *)

val verbs : verb list
(** Every verb, in declaration order. *)

(** Where the deck (or layout) text comes from.  Inline text and an
    on-disk path are equivalent: both are cached by {e content}
    digest, so editing a file invalidates exactly its own entries. *)
type source = Inline of string | Path of string

type request = {
  id : Json.t;
      (** client-chosen correlation value, echoed verbatim in the
          reply; [Json.Null] when absent *)
  verb : verb;
  source : source option;  (** from the ["deck"] / ["deck_path"] /
                               ["layout"] / ["layout_path"] fields *)
  overrides : (string * float) list;
      (** element-value overrides, sorted by element name — part of
          the plan-cache key *)
  deadline_ms : float option;
      (** request deadline in milliseconds, counted from admission;
          when exceeded the service cancels the work cooperatively and
          replies [deadline-exceeded] with partial progress counters *)
  params : Json.t;  (** the verb-specific ["params"] object;
                        [Json.Null] when absent *)
}

(** Stable error codes of the wire error catalogue
    (see [docs/SERVER.md]). *)
type error_code =
  | Parse_error  (** the line was not valid JSON *)
  | Bad_request  (** valid JSON, invalid request shape or params *)
  | Unknown_verb
  | Deck_unreadable  (** missing file, SPICE parse error, bad deck *)
  | Lint_refused  (** lint errors refused simulation; carries the
                      full analyzer report *)
  | Engine_diag  (** solver diagnostic; carries {!Sn_engine.Diag}
                     JSON *)
  | Busy
      (** bounded queue full or memory watermark exceeded —
          backpressure, retry later *)
  | Quota_exceeded  (** per-client in-queue quota hit *)
  | Deadline_exceeded
      (** the request's [deadline_ms] elapsed; work was cancelled at
          an iteration boundary and the error carries progress
          counters *)
  | Unauthorized
      (** TCP endpoint requires [--auth-token] and the connection has
          not presented it *)
  | Internal  (** unexpected exception (reported, not a disconnect) *)

val parse_request : Json.t -> (request, error_code * string) result
(** Typed view of a parsed request line.  Rejects non-objects, unknown
    or missing verbs, conflicting deck sources and malformed
    overrides with the error code the reply should carry. *)

(** {1 Reply constructors} *)

type cache_note = Hit | Miss | Not_applicable
(** Whether a cache layer served this request. *)

type served = {
  elapsed_ms : float;  (** wall time inside the service dispatch *)
  plan : cache_note;  (** compiled-plan cache (deck hash + overrides) *)
  bias : cache_note;  (** DC-bias / AC-plan cache *)
  batched : int;
      (** how many queued requests the serving pool dispatch
          coalesced; [1] when the request ran alone *)
}

val response : id:Json.t -> verb:verb -> served:served -> Json.t -> Json.t
(** [response ~id ~verb ~served result] is the
    [{"type":"response", …}] object.  [result] is the verb-specific
    payload. *)

val error :
  ?id:Json.t -> ?data:(string * Json.t) list -> error_code -> string ->
  Json.t
(** [error code message] is the [{"type":"error", …}] object; [data]
    members (e.g. ["diag"], ["lint"], ["retry_after_ms"]) are spliced
    into the ["error"] object after ["code"] and ["message"]. *)

val diag_error : ?id:Json.t -> Sn_engine.Diag.t -> Json.t
(** Map a solver diagnostic onto the wire: lint-gate refusals become
    {!Lint_refused}, everything else {!Engine_diag}; both embed the
    diagnostic's own JSON under ["diag"]. *)
