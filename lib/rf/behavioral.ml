module U = Sn_numerics.Units
module Goertzel = Sn_numerics.Goertzel

type tone = { f_noise : float; beta : Complex.t; m_am : Complex.t }

(* Samples between exact re-anchors of each tone's rotating phasor. *)
let anchor_every = 1024

(* Each tone's e^{j w_m t} advances by one complex rotation per sample
   and is re-anchored with exact cos/sin every [anchor_every] samples,
   so the only per-sample transcendental is the carrier's cos.  Tone
   state lives in flat float arrays: the loop allocates nothing but the
   output. *)
let synthesize ~carrier_freq ~amplitude ~tones ~fs ~n =
  if n <= 0 then invalid_arg "Behavioral.synthesize: n must be > 0";
  if fs <= 2.0 *. carrier_freq then
    invalid_arg "Behavioral.synthesize: fs must exceed 2 fc";
  let wc = U.two_pi *. carrier_freq in
  let tones = Array.of_list tones in
  let nt = Array.length tones in
  let field f = Array.init nt (fun m -> f tones.(m)) in
  let wm = field (fun t -> U.two_pi *. t.f_noise) in
  let am_re = field (fun t -> t.m_am.Complex.re) in
  let am_im = field (fun t -> t.m_am.Complex.im) in
  let pm_re = field (fun t -> t.beta.Complex.re) in
  let pm_im = field (fun t -> t.beta.Complex.im) in
  let rot_c = Array.map (fun w -> cos (w /. fs)) wm in
  let rot_s = Array.map (fun w -> sin (w /. fs)) wm in
  let pc = Array.make nt 0.0 and ps = Array.make nt 0.0 in
  let out = Array.make n 0.0 in
  let start = ref 0 in
  while !start < n do
    let k0 = !start in
    let stop = if n - k0 > anchor_every then k0 + anchor_every else n in
    let t0 = float_of_int k0 /. fs in
    for m = 0 to nt - 1 do
      pc.(m) <- cos (wm.(m) *. t0);
      ps.(m) <- sin (wm.(m) *. t0)
    done;
    for k = k0 to stop - 1 do
      let am = ref 0.0 and pm = ref 0.0 in
      for m = 0 to nt - 1 do
        let c = pc.(m) and s = ps.(m) in
        (* Re (z e^{j wm t}) = re z cos - im z sin *)
        am := !am +. ((am_re.(m) *. c) -. (am_im.(m) *. s));
        pm := !pm +. ((pm_re.(m) *. c) -. (pm_im.(m) *. s));
        pc.(m) <- (c *. rot_c.(m)) -. (s *. rot_s.(m));
        ps.(m) <- (s *. rot_c.(m)) +. (c *. rot_s.(m))
      done;
      let t = float_of_int k /. fs in
      out.(k) <- amplitude *. (1.0 +. !am) *. cos ((wc *. t) +. !pm)
    done;
    start := stop
  done;
  out

let measured_sideband_dbm samples ~fs ~carrier_freq ~f_noise side =
  let f =
    match side with
    | `Lower -> carrier_freq -. f_noise
    | `Upper -> carrier_freq +. f_noise
  in
  let a = Goertzel.amplitude_windowed ~fs ~f samples in
  if a <= 0.0 then -300.0 else U.dbm_of_vpeak a

let carrier_dbm samples ~fs ~carrier_freq =
  let a = Goertzel.amplitude_windowed ~fs ~f:carrier_freq samples in
  if a <= 0.0 then -300.0 else U.dbm_of_vpeak a
