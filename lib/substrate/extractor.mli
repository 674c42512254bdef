(** Substrate macromodel extraction (the SubstrateStorm substitute).

    Assembles the FDM conductance Laplacian of the discretized bulk,
    couples each port to the surface cells it overlaps through the
    technology's specific contact resistance, and eliminates every
    grid node with a Schur complement:

    {v S = G_pp - G_pi G_ii^-1 G_ip v}

    The interior columns are computed by conjugate gradients
    preconditioned by a geometric multigrid V-cycle
    ({!Sn_numerics.Mg}), one CG solve per port, which keeps the cost
    far below a direct factorization as the grid grows (the layered
    profile's z-anisotropy still costs iterations at scale — the bench
    records the per-size counts).  {!Elimination.reduce_grid} computes
    the same matrix by exact star-mesh elimination and serves as the
    small-grid oracle.  A content-addressed {!Cache} keyed by the
    assembled die lets an unchanged extraction skip the reduction
    entirely. *)

(** Counters and phase timings of one extraction. *)
type stats = {
  grid_cells : int;
  ports : int;
  cg_iterations_total : int;
      (** CG iterations actually run — [0] on a fully warm cache *)
  mg_levels : int;
      (** depth of the multigrid hierarchy built; [0] on a cache hit *)
  assemble_seconds : float;  (** grid build, contact scan, bucketing *)
  reduce_seconds : float;  (** Schur reduction (or cache lookup) *)
  stitch_seconds : float;
      (** final port-matrix phase: symmetrize the reduced matrix and
          compute the well capacitances *)
  cache_hits : int;  (** [1] when the reduced matrix came from the cache *)
  cache_misses : int;
      (** [1] when a cache was consulted and missed; [0] without one *)
  elapsed_seconds : float;
}

val last_stats : unit -> stats option
(** Statistics of the most recent {!extract} call (for the runtime
    report and the benches).  Stored atomically, so concurrent
    extractions on pool workers never expose a torn record. *)

val extract :
  ?config:Grid.config ->
  ?grounded_backplane:bool ->
  ?cache:Cache.t ->
  ?tol:float ->
  ?reduction:string ->
  tech:Sn_tech.Tech.t ->
  die:Sn_geometry.Rect.t ->
  Port.t list ->
  Macromodel.t
(** [extract ?config ?grounded_backplane ?cache ?tol ?reduction ~tech
    ~die ports] computes the macromodel.

    With [grounded_backplane] (default [false]) the die backside is
    metallized: an extra resistive port named ["backplane"] couples to
    every bottom grid cell — ground it in the merged model to study a
    conductively attached die.  [die] is in micrometers.

    [tol] (default [1e-13]) is the relative CG residual per Schur
    column; the result agrees with {!Elimination.reduce_grid} to that
    tolerance.  [cache]
    overrides the process default ({!Cache.default}); pass a handle
    explicitly to isolate benches and tests.

    [reduction] tags the cached artifacts with the downstream
    model-order-reduction configuration (a
    [Snoise.Reduced_model.config_digest] string); omitted means the
    exact flow.  The tag is folded into the cache key {e and}
    recorded in the stored entry, so reduced and exact runs keep
    disjoint cache namespaces — a mismatched or corrupted entry is a
    fail-soft miss, never a wrong answer.

    Port columns are reduced in parallel on
    {!Sn_engine.Pool.default}; results are byte-identical regardless
    of worker count.

    Raises [Invalid_argument] when [ports] is empty, when a port lies
    outside the die, when a grid cell is disconnected (zero diagonal —
    the error names the offending cell), or on grid configuration
    errors; fails with [Sn_numerics.Cg.Not_converged] if an
    elimination solve stalls. *)

val extract_from_layout :
  ?config:Grid.config ->
  ?margin_fraction:float ->
  ?cache:Cache.t ->
  ?tol:float ->
  ?reduction:string ->
  tech:Sn_tech.Tech.t ->
  Sn_layout.Layout.t ->
  Macromodel.t
(** [extract_from_layout ?config ?margin_fraction ?cache ?tol
    ?reduction ~tech layout] derives the extraction window from the
    substrate-relevant shapes (contacts, wells, probes — metal routing
    and pads are excluded so they cannot blow up the cell size),
    padded on each side by [margin_fraction] (default 0.35) of the
    larger extent so bulk spreading has room, then extracts with ports
    from {!Port.of_layout}.  The cache, tolerance and reduction
    options are forwarded to {!extract}. *)
