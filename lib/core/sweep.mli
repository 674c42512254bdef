(** Domain-parallel sweep combinators.

    Every experiment of the paper's evaluation is a sweep: frequencies
    (Figs. 7-10), process corners, guard-ring and ground-wire sizing
    studies all re-solve independent merged models.  The combinators
    here fan those points out over the shared {!Sn_engine.Pool} and
    gather the results in input order, so a parallel sweep is
    bit-identical to the sequential one — the pool width only changes
    wall-clock time, never numbers.

    Pool width resolution, in priority order: the [?pool] argument, a
    {!set_jobs} call (the CLI's [--jobs]), the [SNOISE_JOBS]
    environment variable, [Domain.recommended_domain_count ()].  Width
    1 runs the exact sequential path (no domains are spawned). *)

val jobs : unit -> int
(** Width of the pool the combinators will use (resolving it creates
    the default pool on first call). *)

val set_jobs : int -> unit
(** Select the default pool width (clamped to
    [[1, Sn_engine.Pool.max_jobs]]).  Recreates the shared pool when
    the width changes. *)

val stats : unit -> Sn_engine.Pool.stats
(** Counters of the shared default pool ({!Sn_engine.Pool.stats}). *)

val reset_stats : unit -> unit
(** Reset the shared default pool's counters. *)

val map_points : ?pool:Sn_engine.Pool.t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_points f points] is [List.map f points] with the points
    evaluated in parallel on the pool (default: the shared pool) and
    the results in input order.  [f] must not share mutable state
    between points.  The first exception raised by any point is
    re-raised after the sweep drains. *)

val map_array : ?pool:Sn_engine.Pool.t -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map_points}; results are positioned by input
    index. *)

val grid :
  ?pool:Sn_engine.Pool.t ->
  ('a -> 'b -> 'c) -> 'a list -> 'b list -> ('a * 'b * 'c) list
(** [grid f xs ys] evaluates [f x y] for the full cartesian product,
    flattened row-major ([xs] outer, [ys] inner) so every grid cell is
    an independent pool task.  Returns [(x, y, f x y)] triples in
    row-major order. *)
