(** Radix-2 FFT and spectral helpers used to "measure" spur levels on
    simulated waveforms, playing the role of the paper's spectrum
    analyzer.

    One in-place O(N log N) kernel serves every transform here: it runs
    on split real/imaginary float arrays, so the butterflies allocate
    nothing, and its twiddles are exact [cos]/[sin] of [2 pi k / N]
    from a table built per call (no running product, no table kept
    between calls).  {!fft} and {!ifft} only convert at the [Complex.t]
    boundary; {!amplitude_spectrum} uses the kernel directly. *)

val fft : Complex.t array -> Complex.t array
(** [fft x] is the forward DFT of [x].
    Raises [Invalid_argument] when the length is not a power of two. *)

val ifft : Complex.t array -> Complex.t array
(** [ifft x] inverts {!fft} (including the 1/N normalization). *)

val hann : int -> float array
(** [hann n] is the Hann window of length [n]. *)

type spectrum = {
  frequencies : float array; (** bin centers, Hz, DC .. fs/2 *)
  amplitudes : float array;  (** peak-equivalent sinusoid amplitude per bin *)
}

val amplitude_spectrum : ?window:[ `Rect | `Hann ] -> fs:float -> float array -> spectrum
(** [amplitude_spectrum ?window ~fs samples] is the single-sided
    amplitude spectrum of [samples] taken at sample rate [fs].  The
    input is zero-padded to a power of two; window defaults to [`Hann]
    and its coherent gain is compensated so an input
    [a *. cos (2 pi f t)] with [f] on a bin center reads amplitude [a].
    Raises [Invalid_argument] on an empty input or non-positive [fs]. *)

val peak_near : spectrum -> f:float -> span:float -> float * float
(** [peak_near s ~f ~span] is [(f_peak, a_peak)], the largest-amplitude
    bin within [f +- span].  Raises [Not_found] when no bin falls in the
    interval. *)
