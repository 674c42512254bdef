(** Single-bin DFT.

    Measuring one spur at a known frequency [f_c +- f_noise] does not
    need a full FFT.  This module evaluates that single bin at an
    arbitrary (non-bin-center) frequency in one O(N) pass that
    allocates nothing: the e^{-j w i} phasor (and, for the windowed
    form, the Hann window's cosine) advance by complex rotation and are
    re-anchored with exact [cos]/[sin] every 1024 samples.  Against a
    per-sample [cos]/[sin] correlation the error stays a rounding floor
    of the strongest input tone: within ~1e-11 relative on a bin 60 dB
    below it.  It is a first-order rotation, not the second-order
    Goertzel recurrence, so it stays well conditioned near [f = 0]. *)

val bin : fs:float -> f:float -> float array -> Complex.t
(** [bin ~fs ~f samples] is the complex DFT coefficient of [samples] at
    frequency [f] (Hz), with the [2/N] normalization that makes a pure
    input [a *. cos (2 pi f t + phi)] yield a coefficient of magnitude
    [a].  Raises [Invalid_argument] on an empty input, [fs <= 0], or
    [f] outside [0, fs/2]. *)

val amplitude : fs:float -> f:float -> float array -> float
(** [amplitude ~fs ~f samples] is [Complex.norm (bin ~fs ~f samples)]. *)

val amplitude_windowed : fs:float -> f:float -> float array -> float
(** Like {!amplitude} but weights the samples by the Hann window
    {!Fft.hann} (compensated for its coherent gain, which is summed in
    the same pass) — reduces leakage from nearby strong tones at the
    cost of a wider main lobe.  The Hann window of 2 samples is all
    zeros, so a 2-sample input yields [nan]. *)
