(** Textual rendering of the experiment results — the rows and series
    the paper's tables and figures show. *)

val fig3 : Format.formatter -> Experiments.fig3 -> unit
(** Fig. 3 table: divider with/without wire R and the bias sweep. *)

val sec3 : Format.formatter -> Experiments.sec3_numbers -> unit
(** Section-3 scalar claims next to the paper's quoted values. *)

val fig7 : Format.formatter -> Experiments.fig7 -> unit
(** Fig. 7 spur table plus the ASCII spectrum panel. *)

val fig8 : Format.formatter -> Experiments.fig8_family list -> unit
(** Fig. 8 spur-vs-frequency table, one block per tuning voltage. *)

val fig9 : Format.formatter -> Experiments.fig9 -> unit
(** Fig. 9 per-entry-point contribution curves and headline gaps. *)

val fig10 : Format.formatter -> Experiments.fig10 -> unit
(** Fig. 10 normal-vs-widened ground comparison. *)

val vco_card : Format.formatter -> Experiments.vco_card -> unit
(** Section-4 VCO design card. *)

val runtime : Format.formatter -> Experiments.runtime -> unit
(** Wall-clock breakdown of one flow run, including the worker-pool
    statistics of the impact sweep. *)

val aggressor : Format.formatter -> Experiments.aggressor_comb -> unit
(** Digital-aggressor spur comb (line table and total power). *)

val lint :
  Format.formatter -> deck:string -> Sn_analysis.Analyzer.report -> unit
(** Boxed lint report for one deck: one {!Sn_analysis.Rule.pp_diagnostic}
    line per finding (or ["clean"]) and an error/warning/suppressed
    summary.  The CLI's [snoise lint] text output. *)

val verify : Format.formatter -> deck:string -> Flow.preflight -> unit
(** Boxed numerical pre-flight report for one deck: every analyzer
    diagnostic, one line each for the conditioning / stiffness /
    passivity / reduction analyses, and a summary ending in
    [verified] or [REFUSED] ({!Flow.preflight_failing}).  The CLI's
    [snoise verify DECK] text output. *)

val cache_verification :
  Format.formatter -> dir:string -> Sn_substrate.Cache.verification -> unit
(** Boxed certificate-verification report for a tile-cache directory:
    one judged entry per line and the certified / recertified / stale /
    bad counts.  The CLI's [snoise verify --cache] text output. *)
