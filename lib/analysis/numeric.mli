(** Numerical pre-flight: static conditioning, stiffness and passivity
    analyses over the compiled stamp plan.

    The structural rules ({!Structural}) predict {e pattern} failures —
    matrices that cannot be nonsingular.  These analyses predict
    {e numeric} failures of pattern-perfect decks, from magnitudes the
    engine exports per node row
    ({!Sn_engine.Stamp_plan.numeric_profile}):

    - {b conditioning span}: a node row whose incident conductances
      span many decades loses that many digits to cancellation when LU
      eliminates the strong neighbor into the weak pivot; beyond
      [1/eps] the pivot underflows to exactly zero and the engine
      reports the same node in a [Diag.Singular_pivot];
    - {b stiffness spectrum}: per-node RC time constants
      [tau = C_node / G_node]; a min/max ratio beyond {!stiffness_limit}
      means no fixed step both resolves the fastest mode and covers the
      slowest — the transient engine's step retry then truncates;
    - {b pool passivity}: the deck's R/C pool (including [red_*]
      reduced-model realizations, which legitimately carry negative
      branch values) must assemble into PSD conductance / capacitance
      matrices; an indefinite pool has no physical realization and
      produces meaningless, potentially unstable AC/transient results.

    Each analysis is exposed raw (for {!Snoise.Flow} pre-flight
    summaries and [snoise verify]) and as a rule check registered in
    {!Rules.registry} (codes ["conditioning-span"], ["stiff-transient"],
    ["non-passive-pool"]). *)

(** {2 Conditioning} *)

type span = {
  sp_node : string;  (** the node whose row cancels *)
  sp_ratio : float;  (** max/min incident conductance magnitude *)
  sp_hi : string * float;  (** dominating element and its magnitude *)
  sp_lo : string * float;  (** weakest element and its magnitude *)
  sp_digits : float;  (** predicted surviving significant digits *)
}

val span_to_json : span -> Sn_json.Json.t
(** [{"node", "ratio", "hi": {"element", "siemens"}, "lo": {...},
    "digits"}] — one entry of [snoise verify --json]'s
    ["conditioning"] array. *)

val span_limit : float
(** Spans above this (1e13: three surviving digits) are flagged. *)

val conditioning : Rule.context -> span list
(** Per-node conductance spans above {!span_limit}, worst first. *)

(** {2 Stiffness} *)

type stiffness = {
  st_fast_node : string;
  st_fast_tau : float;  (** smallest resistively-tied RC constant, s *)
  st_slow_node : string;
  st_slow_tau : float;  (** largest, s *)
  st_ratio : float;
  st_dt : float;  (** suggested step bound: [st_fast_tau / 2] *)
  st_steps : float;  (** steps to cover [5 * st_slow_tau] at [st_dt] *)
}

val stiffness_to_json : stiffness -> Sn_json.Json.t
(** [{"fast_node", "fast_tau_s", "slow_node", "slow_tau_s", "ratio",
    "suggested_dt_s", "steps_to_cover"}]. *)

val stiffness_limit : float
(** Ratios above this (1e12) predict step truncation. *)

val stiffness : Rule.context -> stiffness option
(** Min/max RC time constant over nodes that are both capacitively
    loaded and resistively tied (capacitor-only nodes carry a slow,
    quasi-static mode and do not limit the step).  [None] when fewer
    than two such nodes exist. *)

(** {2 Pool passivity} *)

type pool_defect = {
  pd_pencil : [ `Conductance | `Capacitance ];
  pd_node : string;  (** pool node at the offending pivot *)
  pd_defect : float;  (** most negative LDLᵀ pivot *)
  pd_tol : float;  (** round-off allowance it was judged against *)
  pd_dim : int;  (** checked component size *)
  pd_negative : int;  (** negative-valued branches in the component *)
}

val pool_defect_to_json : pool_defect -> Sn_json.Json.t
(** [{"pencil", "node", "defect", "tolerance", "dim",
    "negative_branches"}]. *)

val pool_passivity : Rule.context -> pool_defect list
(** LDLᵀ PSD check of the deck's R/C pool.  All-positive pools are
    passive by diagonal dominance and skip factorization entirely;
    otherwise only the connected components actually containing a
    negative branch are assembled and factored. *)

(** {2 Rule checks} (registered in {!Rules.registry}) *)

val check_conditioning : Rule.context -> Rule.diagnostic list
val check_stiffness : Rule.context -> Rule.diagnostic list
val check_passivity : Rule.context -> Rule.diagnostic list
