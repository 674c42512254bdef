(** Transient analysis: fixed-step backward-Euler or trapezoidal
    integration with a Newton solve per time point.

    Capacitors and inductors get the standard companion models; the
    varactor integrates its exact charge equation (charge-conserving),
    which matters when it frequency-modulates the tank. *)

type method_ = Backward_euler | Trapezoidal

type initial_condition =
  | Operating_point  (** start from the DC solution *)
  | Uic of (string * float) list
      (** skip the DC solve; start from 0 V except the listed nodes *)

type options = {
  method_ : method_;
  max_newton : int;
  tolerance : float;
  ic : initial_condition;
  record : string list option;  (** nodes to record; [None] = all *)
  linear_fast_path : bool;
      (** when the circuit is linear (no MOSFET, no varactor), skip the
          Newton loop and — on a fixed step — freeze the LU
          factorization after the first point, leaving two triangular
          solves per step (default [true]) *)
  max_step_retries : int;
      (** step-size halvings tried when a time point fails before the
          waveform is truncated (default 6, i.e. down to [dt / 64]) *)
}

val default_options : options
(** Trapezoidal, 50 Newton iterations, 1e-9 tolerance, operating-point
    start, record all nodes, linear fast path on. *)

exception Step_failed of { time : float; iterations : int }
(** Internal per-point failure.  The public entry points do not let it
    escape: a failing point triggers the step-retry backoff, and past
    the retry limit the waveform is returned truncated (see
    {!type-dataset.field-truncated}). *)

type dataset = {
  times : float array;
  names : string array;
  data : float array array;  (** [data.(k)] is the waveform of [names.(k)] *)
  truncated : Diag.t option;
      (** [None] for a complete run; [Some (Step_truncated _)] when a
          time point kept failing at the smallest allowed step and the
          waveform stops early — [times] / [data] then hold only the
          accepted points *)
}

val simulate :
  ?options:options -> tstop:float -> dt:float -> Sn_circuit.Netlist.t ->
  dataset
(** [simulate ?options ~tstop ~dt nl] integrates from 0 to [tstop].
    A failing time point is retried by re-integrating its interval
    with up to [2 ^ max_step_retries] substeps; if even the smallest
    substep fails, the partial waveform is returned with
    {!type-dataset.field-truncated} set instead of raising.  Raises
    [Invalid_argument] for non-positive [tstop] / [dt], and when
    [tstop /. dt] does not round to a representable step count. *)

val simulate_adaptive :
  ?options:options -> ?dt_min:float -> ?dt_max:float -> ?lte_tol:float ->
  tstop:float -> dt:float -> Sn_circuit.Netlist.t -> dataset
(** [simulate_adaptive ?options ?dt_min ?dt_max ?lte_tol ~tstop ~dt nl]
    integrates with step-doubling local-truncation-error control: each
    accepted step compares one [h] step against two [h/2] steps and
    grows or shrinks [h] to keep the estimated error under [lte_tol]
    (default 1e-6, absolute on node voltages).  [dt] is the initial
    step; [dt_min] defaults to [dt / 1024], [dt_max] to [16 * dt].
    Time points are non-uniform.  A Newton stall is treated like an
    LTE rejection (halve the step); when the step cannot be met at
    [dt_min] the partial waveform is returned with
    {!type-dataset.field-truncated} set.  Raises [Invalid_argument] like
    {!simulate}. *)

val node : dataset -> string -> float array
(** Waveform of one recorded node.  Raises [Not_found]. *)

val samples_after : dataset -> t0:float -> string -> float array
(** [samples_after d ~t0 node] drops the start-up transient before
    [t0] — the window handed to the spectral estimator. *)
