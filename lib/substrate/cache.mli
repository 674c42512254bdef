(** Content-addressed cache of reduced substrate port matrices.

    An extraction's reduced conductance matrix is a pure function of
    the serialized content {!Extractor} hashes into the key: the die's
    branch list (grid geometry and technology numbers are folded into
    the branch conductances), the port labels, and the solver
    settings.  Keying by content means a warm extraction of an
    unchanged die skips the reduction entirely, while any edit that
    matters moves the key.  Entries and their type keep the historical
    "tile" naming ([.tile] files, {!tile_model}) so existing cache
    directories stay valid.

    Entries persist on disk (conventionally under [_snoise_cache/]) as
    versioned [Marshal] payloads behind a magic header.  Reads are
    fail-soft: a truncated, corrupted or version-stale entry is a miss
    that falls back to recomputation. *)

type t
(** A handle on one cache directory. *)

(** A cached reduced port matrix. *)
type tile_model = {
  labels : string array;
      (** port labels in matrix order — verified against the
          extraction on a hit, so a stale entry can never be scattered
          into the wrong slots *)
  matrix : float array;
      (** row-major reduced conductance matrix over the ports *)
  iterations : int;  (** CG iterations spent producing the entry *)
  form : string;
      (** solver/reduction configuration tag the entry was produced
          under (["exact"], or a {!Snoise.Reduced_model.config_digest}
          string when the flow runs with model-order reduction) —
          verified against the extraction on a hit, so reduced and
          exact artifacts can never collide even across format
          versions *)
}

val create : dir:string -> t
(** [create ~dir] binds a cache to [dir], creating it (best-effort,
    [mkdir -p] style) when missing.  An unwritable directory degrades
    to a cache that never hits — extraction results are never
    affected. *)

val dir : t -> string
(** The cache directory. *)

val hex_key : string -> string
(** [hex_key material] digests serialized key material into the hex
    file-name key. *)

val lookup : t -> key:string -> tile_model option
(** [lookup t ~key] returns the cached model, or [None] on a miss —
    including any unreadable or version-stale entry, and any entry
    whose passivity certificate no longer verifies against its own
    bytes (corruption and tampering downgrade to recomputation, never
    to a wrong answer). *)

val store : t -> key:string -> tile_model -> unit
(** [store t ~key model] persists an entry atomically (temp file +
    rename), together with a signed passivity certificate
    ({!Sn_numerics.Passivity.certify} over the reduced matrix, bound
    to [key]); a non-passive matrix — which a healthy extraction never
    produces — is stored uncertified and flagged by {!verify_dir}.
    Failures are logged and swallowed: caching is an optimization,
    never a correctness dependency. *)

val format_version : int
(** Serialization format version; bumping it invalidates every
    existing entry.  Version 3 added the passivity certificate. *)

(** {1 Certificate verification}

    [snoise verify --cache-dir DIR] and the server's [verify] verb
    re-judge every entry from its bytes alone: signature hashing for
    certified entries (O(dim²)), a fresh LDLᵀ for uncertified ones —
    never an extraction, never a CG iteration. *)

(** How one entry verified. *)
type entry_status =
  | Certified  (** stored signature verifies against the entry bytes *)
  | Recertified
      (** no stored certificate (pre-certificate writer or a store
          that failed certification), but the matrix passes a fresh
          PSD check *)
  | Stale
      (** older format version — harmless, the extractor treats it as
          a miss *)
  | Bad of string  (** corrupt, tampered or genuinely non-passive *)

type verification = {
  vf_entries : (string * entry_status) list;
      (** (key, judgement), sorted by key *)
  vf_certified : int;
  vf_recertified : int;
  vf_stale : int;
  vf_bad : int;
}

val status_name : entry_status -> string
(** Stable kebab-case name for JSON output: ["certified"],
    ["recertified"], ["stale"], ["bad"]. *)

val verification_to_json :
  header:(string * Sn_json.Json.t) list -> verification -> Sn_json.Json.t
(** The [snoise verify --json --cache] / server [verify] object: the
    caller's [header] members, then ["entries"] (each [{"key",
    "status"}] plus ["detail"] for a bad entry), the four counts and
    ["failing"]. *)

val verify_entry : t -> key:string -> entry_status
(** Judge a single entry. *)

val verify_dir : t -> verification
(** Judge every [*.tile] entry under the cache directory.  A cache
    passes verification iff [vf_bad = 0]. *)

(** {1 Process-wide counters} *)

type counters = {
  lookups : int;
  hits : int;  (** lookups that returned a (verified) model *)
  rejected : int;
      (** lookups whose entry was readable but failed certificate
          verification — corruption or tampering caught in time *)
  stores : int;
}

val counters : unit -> counters
(** Lifetime totals for this process ([snoise runtime], server
    stats). *)

val reset_counters : unit -> unit

(** {1 Process-wide default}

    The CLI flags [--cache-dir DIR] / [--no-cache] and the
    [SNOISE_CACHE_DIR] environment variable select the default cache
    consulted by {!Extractor.extract} when no explicit cache is
    passed. *)

val set_default_dir : string option -> unit
(** [set_default_dir (Some d)] selects [d]; [set_default_dir None]
    disables caching for the process, overriding the environment. *)

val default : unit -> t option
(** The selected default cache: the last {!set_default_dir}, else
    [SNOISE_CACHE_DIR] from the environment, else [None] (caching
    off). *)

(** Where the process-wide default came from, in precedence order:
    the CLI flags beat the environment, and an untouched process
    reports [Unset_default]. *)
type origin =
  | Flag  (** [--cache-dir DIR] (a {!set_default_dir} with a path) *)
  | Env  (** [SNOISE_CACHE_DIR] from the environment *)
  | No_cache_flag  (** [--no-cache] (a {!set_default_dir} with [None]) *)
  | Unset_default  (** nothing selected: caching off *)

type resolution = { origin : origin; dir : string option }
(** The resolved default-cache state: [dir] is [None] exactly when
    caching is off. *)

val origin_name : origin -> string
(** Stable name for reports and the server stats JSON:
    ["--cache-dir"], ["SNOISE_CACHE_DIR"], ["--no-cache"] or
    ["unset"]. *)

val resolution : unit -> resolution
(** How the default cache resolved for this process — what
    [snoise runtime] and the server's [stats] reply report, so
    warm-vs-cold extraction behaviour is diagnosable. *)

val pp_resolution : Format.formatter -> resolution -> unit
(** E.g. ["/tmp/tiles (from SNOISE_CACHE_DIR)"] or
    ["disabled (no --cache-dir and no SNOISE_CACHE_DIR set)"]. *)
