(* Tests for sn_rf: the tank model and K_i sensitivities, the FM/AM
   spur equations against hand-derived values, the behavioral
   synthesizer against FM theory, and the Leeson estimate. *)

module Tank = Sn_rf.Tank
module Impact = Sn_rf.Impact
module Behavioral = Sn_rf.Behavioral
module Pn = Sn_rf.Phase_noise
module U = Sn_numerics.Units

let check_close tol = Alcotest.(check (float tol))

let tank = Tank.default_3ghz
let bias = Tank.quiet_bias ~v_tune:0.45

(* ------------------------------------------------------------------ *)
(* Tank *)

let test_tank_3ghz () =
  let f = Tank.frequency tank bias in
  Alcotest.(check bool)
    (Printf.sprintf "fc = %.2f GHz near 3" (f /. 1e9))
    true
    (f > 2.6e9 && f < 3.8e9)

let test_tank_capacitance_positive_and_tuned () =
  let c0 = Tank.capacitance tank (Tank.quiet_bias ~v_tune:0.0) in
  let c9 = Tank.capacitance tank (Tank.quiet_bias ~v_tune:0.9) in
  Alcotest.(check bool) "C > 0" true (c0 > 0.0);
  (* higher tuning voltage lowers the varactor bias -> less C *)
  Alcotest.(check bool) "tuning reduces C" true (c9 < c0)

let test_junction_capacitance_law () =
  let j = { Tank.c0 = 100e-15; phi_b = 0.8; grading = 0.5 } in
  check_close 1e-18 "zero bias" 100e-15 (Tank.junction_capacitance j 0.0);
  check_close 1e-18 "reverse bias shrinks"
    (100e-15 /. sqrt 2.0)
    (Tank.junction_capacitance j 0.8);
  (* forward-bias clamp keeps it finite *)
  Alcotest.(check bool) "clamped" true
    (Float.is_finite (Tank.junction_capacitance j (-2.0)))

let test_ground_mirror_of_varactor_well () =
  (* a ground bounce changes the varactor bias exactly opposite to a
     tuning-node shift, so the sensitivities mirror *)
  let k_gnd = Tank.sensitivity tank bias Tank.Ground in
  let k_var = Tank.sensitivity tank bias Tank.Varactor_well in
  Alcotest.(check bool) "opposite signs" true (k_gnd *. k_var < 0.0);
  Alcotest.(check bool) "similar magnitude" true
    (Float.abs (Float.abs k_gnd /. Float.abs k_var -. 1.0) < 0.2)

let test_ground_sensitivity_dominates_backgate () =
  (* the varactor slope beats the junction-cap slope by an order of
     magnitude: the root of the paper's 20 dB gap *)
  let k_gnd = Float.abs (Tank.sensitivity tank bias Tank.Ground) in
  let k_bg = Float.abs (Tank.sensitivity tank bias Tank.Backgate) in
  Alcotest.(check bool)
    (Printf.sprintf "K_gnd/K_bg = %.1f" (k_gnd /. k_bg))
    true
    (k_gnd /. k_bg > 5.0)

let test_sensitivity_is_derivative () =
  (* central difference at a different step must agree *)
  let k = Tank.sensitivity tank bias Tank.Ground in
  let dv = 1e-3 in
  let fp = Tank.frequency tank (Tank.apply_entry bias Tank.Ground dv) in
  let fm = Tank.frequency tank (Tank.apply_entry bias Tank.Ground (-.dv)) in
  let k' = (fp -. fm) /. (2.0 *. dv) in
  Alcotest.(check bool) "derivative consistent" true
    (Float.abs (k -. k') /. Float.abs k < 1e-3)

let test_kvco_sign_and_magnitude () =
  let k = Tank.kvco tank ~v_tune:0.45 in
  (* raising v_tune lowers the varactor bias, shrinks C, raises f *)
  Alcotest.(check bool) "positive tuning gain" true (k > 0.0);
  Alcotest.(check bool) "hundreds of MHz/V" true (k > 1e8 && k < 2e9)

(* ------------------------------------------------------------------ *)
(* Impact model *)

let one_entry_osc k g_am =
  {
    Impact.carrier_freq = 3.0e9;
    amplitude = 0.4;
    entries =
      [ { Impact.label = "e"; node = "n"; k_hz_per_v = k; g_am_per_v = g_am } ];
  }

let const_h v _node = { Complex.re = v; im = 0.0 }

let test_spur_matches_eq2 () =
  (* pure FM: |V(fc+fn)| = Ac K H A / (2 fn)  (paper eq. 2) *)
  let k = 1.0e8 and h = 1.0e-3 and a_noise = 0.1 and fn = 1.0e6 in
  let osc = one_entry_osc k 0.0 in
  let s = Impact.spur osc ~h:(const_h h) ~a_noise ~f_noise:fn in
  let expected = 0.4 *. k *. h *. a_noise /. (2.0 *. fn) in
  check_close 0.01 "eq 2" (U.dbm_of_vpeak expected) s.Impact.upper_dbm;
  check_close 0.05 "lower = upper for pure FM" s.Impact.upper_dbm
    s.Impact.lower_dbm

let test_spur_matches_eq3 () =
  (* pure AM: |V(fc+-fn)| = Ac H A G / 2, frequency independent *)
  let g = 0.5 and h = 1.0e-3 and a_noise = 0.1 in
  let osc = one_entry_osc 0.0 g in
  let s1 = Impact.spur osc ~h:(const_h h) ~a_noise ~f_noise:1.0e6 in
  let s2 = Impact.spur osc ~h:(const_h h) ~a_noise ~f_noise:10.0e6 in
  let expected = 0.4 *. h *. a_noise *. g /. 2.0 in
  check_close 0.01 "eq 3" (U.dbm_of_vpeak expected) s1.Impact.upper_dbm;
  check_close 0.01 "AM flat in frequency" s1.Impact.upper_dbm
    s2.Impact.upper_dbm

let test_fm_scales_inverse_f () =
  let osc = one_entry_osc 1.0e8 0.0 in
  let at fn =
    (Impact.spur osc ~h:(const_h 1e-3) ~a_noise:0.1 ~f_noise:fn).Impact.upper_dbm
  in
  check_close 0.01 "-20 dB per decade" 20.0 (at 1.0e6 -. at 1.0e7)

let test_superposition_of_entries () =
  (* two identical in-phase entries double the spur voltage: +6 dB *)
  let osc2 =
    {
      Impact.carrier_freq = 3.0e9;
      amplitude = 0.4;
      entries =
        [ { Impact.label = "a"; node = "n"; k_hz_per_v = 1.0e8; g_am_per_v = 0.0 };
          { Impact.label = "b"; node = "n"; k_hz_per_v = 1.0e8; g_am_per_v = 0.0 } ];
    }
  in
  let s1 =
    Impact.spur (one_entry_osc 1.0e8 0.0) ~h:(const_h 1e-3) ~a_noise:0.1
      ~f_noise:1.0e6
  in
  let s2 = Impact.spur osc2 ~h:(const_h 1e-3) ~a_noise:0.1 ~f_noise:1.0e6 in
  check_close 0.02 "+6 dB" 6.02 (s2.Impact.upper_dbm -. s1.Impact.upper_dbm)

let test_opposing_entries_cancel () =
  let osc =
    {
      Impact.carrier_freq = 3.0e9;
      amplitude = 0.4;
      entries =
        [ { Impact.label = "a"; node = "n"; k_hz_per_v = 1.0e8; g_am_per_v = 0.0 };
          { Impact.label = "b"; node = "n"; k_hz_per_v = -1.0e8; g_am_per_v = 0.0 } ];
    }
  in
  let s = Impact.spur osc ~h:(const_h 1e-3) ~a_noise:0.1 ~f_noise:1.0e6 in
  Alcotest.(check bool) "cancellation" true (s.Impact.upper_dbm < -200.0)

let test_am_fm_asymmetry () =
  (* AM and FM arriving through paths of different phase split the
     sidebands; with identical phases |m + j beta| = |m - j beta| and
     they cannot split (which is why the paper's measured asymmetry is
     small) *)
  let osc =
    {
      Impact.carrier_freq = 3.0e9;
      amplitude = 0.4;
      entries =
        [ { Impact.label = "fm"; node = "n1"; k_hz_per_v = 1.0e8;
            g_am_per_v = 0.0 };
          { Impact.label = "am"; node = "n2"; k_hz_per_v = 0.0;
            g_am_per_v = 5.0 } ];
    }
  in
  let h node =
    if String.equal node "n1" then { Complex.re = 1e-3; im = 0.0 }
    else { Complex.re = 0.0; im = 1e-3 }
  in
  let s = Impact.spur osc ~h ~a_noise:0.1 ~f_noise:10.0e6 in
  Alcotest.(check bool) "sidebands differ" true
    (Float.abs (s.Impact.upper_dbm -. s.Impact.lower_dbm) > 0.5);
  (* same phases: no split *)
  let s_same =
    Impact.spur (one_entry_osc 1.0e8 5.0) ~h:(const_h 1e-3) ~a_noise:0.1
      ~f_noise:10.0e6
  in
  Alcotest.(check bool) "same-phase paths do not split" true
    (Float.abs (s_same.Impact.upper_dbm -. s_same.Impact.lower_dbm) < 1e-6)

let test_invalid_f_noise () =
  Alcotest.check_raises "f_noise 0"
    (Invalid_argument "Impact.spur: f_noise must be > 0") (fun () ->
      ignore
        (Impact.spur (one_entry_osc 1.0 0.0) ~h:(const_h 1.0) ~a_noise:1.0
           ~f_noise:0.0))

(* ------------------------------------------------------------------ *)
(* Behavioral synthesis *)

let test_behavioral_matches_bessel () =
  (* narrowband FM: first sideband amplitude = Ac J1(beta) ~ Ac beta/2 *)
  let beta = 0.05 and fc = 50.0e6 and fn = 5.0e6 and fs = 250.0e6 in
  let samples =
    Behavioral.synthesize ~carrier_freq:fc ~amplitude:1.0
      ~tones:
        [ { Behavioral.f_noise = fn; beta = { Complex.re = beta; im = 0.0 };
            m_am = Complex.zero } ]
      ~fs ~n:65536
  in
  let upper =
    Behavioral.measured_sideband_dbm samples ~fs ~carrier_freq:fc ~f_noise:fn
      `Upper
  in
  let expected = U.dbm_of_vpeak (beta /. 2.0) in
  check_close 0.1 "J1 approximation" expected upper

let test_behavioral_carrier_level () =
  let fc = 50.0e6 and fs = 250.0e6 in
  let samples =
    Behavioral.synthesize ~carrier_freq:fc ~amplitude:0.4 ~tones:[] ~fs
      ~n:16384
  in
  check_close 0.05 "carrier dBm" (U.dbm_of_vpeak 0.4)
    (Behavioral.carrier_dbm samples ~fs ~carrier_freq:fc)

let test_behavioral_rejects_undersampling () =
  Alcotest.(check bool) "fs <= 2 fc rejected" true
    (match
       Behavioral.synthesize ~carrier_freq:100.0e6 ~amplitude:1.0 ~tones:[]
         ~fs:150.0e6 ~n:16
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_behavioral_multitone () =
  (* two tones produce two independent spur pairs *)
  let fc = 50.0e6 and fs = 250.0e6 in
  let tone fn beta =
    { Behavioral.f_noise = fn; beta = { Complex.re = beta; im = 0.0 };
      m_am = Complex.zero }
  in
  let samples =
    Behavioral.synthesize ~carrier_freq:fc ~amplitude:1.0
      ~tones:[ tone 3.0e6 0.02; tone 7.0e6 0.04 ] ~fs ~n:65536
  in
  let at fn =
    Behavioral.measured_sideband_dbm samples ~fs ~carrier_freq:fc ~f_noise:fn
      `Upper
  in
  check_close 0.2 "tone 1" (U.dbm_of_vpeak 0.01) (at 3.0e6);
  check_close 0.2 "tone 2" (U.dbm_of_vpeak 0.02) (at 7.0e6)

let test_behavioral_matches_closed_form () =
  (* the rotating-phasor synthesis against eq. (1) evaluated directly,
     sample by sample, with complex AM and FM indices on two tones *)
  let fc = 64.0e6 and fs = 320.0e6 and n = 65536 and ac = 0.6 in
  let tones =
    [ { Behavioral.f_noise = 10.0e6; beta = { Complex.re = 0.03; im = -0.01 };
        m_am = { Complex.re = 2.0e-3; im = 1.5e-3 } };
      { Behavioral.f_noise = 1.3e6; beta = { Complex.re = -0.004; im = 0.02 };
        m_am = { Complex.re = -1.0e-3; im = 4.0e-3 } } ]
  in
  let samples =
    Behavioral.synthesize ~carrier_freq:fc ~amplitude:ac ~tones ~fs ~n
  in
  let re_of z t f =
    let wm = U.two_pi *. f *. t in
    (z.Complex.re *. cos wm) -. (z.Complex.im *. sin wm)
  in
  let max_err = ref 0.0 in
  Array.iteri
    (fun k v ->
      let t = float_of_int k /. fs in
      let sum g =
        List.fold_left (fun acc tn -> acc +. g tn t tn.Behavioral.f_noise) 0.0 tones
      in
      let am = sum (fun tn -> re_of tn.Behavioral.m_am)
      and pm = sum (fun tn -> re_of tn.Behavioral.beta) in
      let closed = ac *. (1.0 +. am) *. cos ((U.two_pi *. fc *. t) +. pm) in
      max_err := Float.max !max_err (Float.abs (v -. closed)))
    samples;
  Alcotest.(check bool)
    (Printf.sprintf "max sample error %.2e <= 1e-10" !max_err)
    true (!max_err <= 1.0e-10)

(* ------------------------------------------------------------------ *)
(* Digital aggressor *)

module Aggressor = Sn_rf.Aggressor

let test_aggressor_harmonics () =
  let a = Aggressor.default in
  let a1 = Aggressor.harmonic_amplitude a 1 in
  Alcotest.(check bool) "fundamental positive" true (a1 > 0.0);
  (* dc-free sanity: amplitude bounded by twice the average current *)
  let avg = a.Aggressor.peak_current *. a.Aggressor.pulse_width /. 2.0
            *. a.Aggressor.clock_freq in
  Alcotest.(check bool) "a1 <= 2 avg" true (a1 <= 2.0 *. avg +. 1e-12);
  (* sinc^2 rolloff: harmonics decay monotonically for this pulse *)
  let rec monotone k =
    k >= a.Aggressor.harmonics
    || (Aggressor.harmonic_amplitude a (k + 1)
        <= Aggressor.harmonic_amplitude a k +. 1e-15
        && monotone (k + 1))
  in
  Alcotest.(check bool) "rolloff" true (monotone 1);
  Alcotest.check_raises "k = 0 rejected"
    (Invalid_argument "Aggressor.harmonic_amplitude: k must be >= 1")
    (fun () -> ignore (Aggressor.harmonic_amplitude a 0))

let test_aggressor_comb () =
  let a = { Aggressor.default with Aggressor.harmonics = 4 } in
  let osc = one_entry_osc 1.0e8 0.0 in
  let comb = Aggressor.spur_comb a ~osc ~h:(fun _f -> const_h 1e-3) in
  Alcotest.(check int) "4 lines" 4 (List.length comb);
  (* with a flat resistive H, the comb decays: less injected current
     and 1/f FM *)
  (match comb with
   | first :: rest ->
     List.iter
       (fun (l : Aggressor.comb_line) ->
         Alcotest.(check bool) "fundamental dominates" true
           (l.Aggressor.upper_dbm <= first.Aggressor.upper_dbm))
       rest
   | [] -> Alcotest.fail "empty comb");
  (* total power at least the strongest line *)
  let total = Aggressor.total_spur_power_dbm comb in
  List.iter
    (fun (l : Aggressor.comb_line) ->
      Alcotest.(check bool) "total >= line" true
        (total >= l.Aggressor.upper_dbm -. 1e-9))
    comb

(* ------------------------------------------------------------------ *)
(* Phase noise *)

let test_leeson_card () =
  let l = Pn.dbc_per_hz Pn.default_vco 100.0e3 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f dBc/Hz near -100" l)
    true
    (l > -105.0 && l < -95.0)

let test_leeson_slope () =
  (* in the 1/f^2 region the noise falls 20 dB/decade *)
  let at f = Pn.dbc_per_hz Pn.default_vco f in
  let slope = at 1.0e6 -. at 1.0e5 in
  Alcotest.(check bool)
    (Printf.sprintf "slope %.1f in [-26, -18]" slope)
    true
    (slope < -18.0 && slope > -26.0)

(* ------------------------------------------------------------------ *)
(* the bounded LRU behind the serving layer's flow cache *)

module Lru = Sn_rf.Lru

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* touching "a" makes "b" the eviction victim *)
  Alcotest.(check (option int)) "hit touches" (Some 1) (Lru.find c "a");
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "LRU evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "touched kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "newest kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "bounded" 2 (Lru.length c);
  Alcotest.(check int) "eviction counted" 1 (Lru.evictions c)

let test_lru_replace_and_trim () =
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* replacing a resident key refreshes its recency without evicting *)
  Lru.add c "a" 10;
  Alcotest.(check int) "replace keeps size" 3 (Lru.length c);
  Alcotest.(check (option int)) "replaced value" (Some 10) (Lru.find c "a");
  (* shedding: trim to one entry keeps the most recently used *)
  Alcotest.(check int) "trim drops" 2 (Lru.trim c ~max_entries:1);
  Alcotest.(check int) "trimmed" 1 (Lru.length c);
  Alcotest.(check (option int)) "MRU survives trim" (Some 10) (Lru.find c "a");
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  match Lru.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted"

let suites =
  [
    ( "rf.tank",
      [
        Alcotest.test_case "3 GHz tank" `Quick test_tank_3ghz;
        Alcotest.test_case "tuning shrinks C" `Quick
          test_tank_capacitance_positive_and_tuned;
        Alcotest.test_case "junction law" `Quick test_junction_capacitance_law;
        Alcotest.test_case "ground mirrors varactor well" `Quick
          test_ground_mirror_of_varactor_well;
        Alcotest.test_case "ground >> backgate sensitivity" `Quick
          test_ground_sensitivity_dominates_backgate;
        Alcotest.test_case "K is the derivative" `Quick
          test_sensitivity_is_derivative;
        Alcotest.test_case "kvco" `Quick test_kvco_sign_and_magnitude;
      ] );
    ( "rf.impact",
      [
        Alcotest.test_case "eq (2) FM spur" `Quick test_spur_matches_eq2;
        Alcotest.test_case "eq (3) AM spur" `Quick test_spur_matches_eq3;
        Alcotest.test_case "FM 1/f law" `Quick test_fm_scales_inverse_f;
        Alcotest.test_case "superposition" `Quick test_superposition_of_entries;
        Alcotest.test_case "cancellation" `Quick test_opposing_entries_cancel;
        Alcotest.test_case "AM/FM sideband asymmetry" `Quick
          test_am_fm_asymmetry;
        Alcotest.test_case "invalid f_noise" `Quick test_invalid_f_noise;
      ] );
    ( "rf.behavioral",
      [
        Alcotest.test_case "FM sideband = J1(beta)" `Quick
          test_behavioral_matches_bessel;
        Alcotest.test_case "carrier level" `Quick test_behavioral_carrier_level;
        Alcotest.test_case "undersampling rejected" `Quick
          test_behavioral_rejects_undersampling;
        Alcotest.test_case "multi-tone" `Quick test_behavioral_multitone;
        Alcotest.test_case "matches closed-form eq. (1)" `Quick
          test_behavioral_matches_closed_form;
      ] );
    ( "rf.aggressor",
      [
        Alcotest.test_case "harmonic spectrum" `Quick test_aggressor_harmonics;
        Alcotest.test_case "spur comb" `Quick test_aggressor_comb;
      ] );
    ( "rf.phase_noise",
      [
        Alcotest.test_case "Leeson card" `Quick test_leeson_card;
        Alcotest.test_case "1/f^2 slope" `Quick test_leeson_slope;
      ] );
    ( "rf.lru",
      [
        Alcotest.test_case "eviction order" `Quick test_lru_eviction;
        Alcotest.test_case "replace and trim" `Quick test_lru_replace_and_trim;
      ] );
  ]
