let check ~fs ~f samples =
  if Array.length samples = 0 then invalid_arg "Goertzel: empty input";
  if fs <= 0.0 then invalid_arg "Goertzel: fs must be > 0";
  if f < 0.0 || f > fs /. 2.0 then
    invalid_arg (Printf.sprintf "Goertzel: f = %g outside [0, fs/2]" f)

(* Samples between exact re-anchors of the rotating phasors. *)
let anchor_every = 1024

(* One-pass windowed correlation against e^{-j w i}.  The window is
   a0 - a1 cos (2 pi i / (n - 1)): (1, 0) is rectangular, (1/2, 1/2)
   Hann.  The tone phasor and the window phasor advance by first-order
   complex rotation and are re-anchored with exact cos/sin every
   [anchor_every] samples; unlike the second-order Goertzel recurrence
   this stays well conditioned near f = 0.  The tone anchor carries
   the rounding error of the phase w i (recovered by fma) to first
   order: an anchor is held for a whole block, so half an ulp of w i
   (~1.5e-11 rad at i = 70,000) would otherwise bias every sample of
   it alike.  The window sum accumulates in the same pass, so the
   result is normalized by the coherent gain, and nothing is allocated
   besides the returned coefficient. *)
let correlate ~hann ~fs ~f samples =
  let n = Array.length samples in
  let a0, a1, wh =
    if hann && n > 1 then (0.5, 0.5, Units.two_pi /. float_of_int (n - 1))
    else (1.0, 0.0, 0.0)
  in
  let w = Units.two_pi *. f /. fs in
  let cw = cos w and sw = sin w and ch = cos wh and sh = sin wh in
  let re = ref 0.0 and im = ref 0.0 and gain = ref 0.0 in
  let start = ref 0 in
  while !start < n do
    let i0 = !start in
    let stop = if n - i0 > anchor_every then i0 + anchor_every else n in
    let ph = w *. float_of_int i0 in
    let lo = Float.fma w (float_of_int i0) (-.ph) in
    let c = ref (cos ph -. (lo *. sin ph)) in
    let s = ref (sin ph +. (lo *. cos ph)) in
    let hc = ref (cos (wh *. float_of_int i0)) in
    let hs = ref (sin (wh *. float_of_int i0)) in
    for i = i0 to stop - 1 do
      let win = a0 -. (a1 *. !hc) in
      let x = win *. Array.unsafe_get samples i in
      gain := !gain +. win;
      re := !re +. (x *. !c);
      im := !im -. (x *. !s);
      let c' = (!c *. cw) -. (!s *. sw) in
      s := (!s *. cw) +. (!c *. sw);
      c := c';
      let hc' = (!hc *. ch) -. (!hs *. sh) in
      hs := (!hs *. ch) +. (!hc *. sh);
      hc := hc'
    done;
    start := stop
  done;
  let scale = if f = 0.0 || f = fs /. 2.0 then 1.0 else 2.0 in
  let k = scale /. !gain in
  { Complex.re = !re *. k; im = !im *. k }

let bin ~fs ~f samples =
  check ~fs ~f samples;
  correlate ~hann:false ~fs ~f samples

let amplitude ~fs ~f samples = Complex.norm (bin ~fs ~f samples)

let amplitude_windowed ~fs ~f samples =
  check ~fs ~f samples;
  Complex.norm (correlate ~hann:true ~fs ~f samples)
