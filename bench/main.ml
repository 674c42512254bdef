(* Benchmark harness: one table of named parts, one driver.

   Each part measures and returns its numbers — metrics
   [(name, value, unit)] and gates [(name, check)] — and the driver
   alone prints them, judges the gates and writes [bench-<part>.json]
   in one schema:

     {"part", "title", "small_mode", "host": {"cpus", "ocaml"},
      "metrics": [{"name", "value", "unit"}],
      "gates": [{"name", "value", "bound", "op", "pass"}]}

   "bench partN [small]" runs one part ("small" trims the CI-sized
   workloads of parts 6-10); a bare "bench" runs the whole table in
   order.  The exit code is 1 when any gate fails, after every file is
   written.  [failwith] is kept for faults of the harness itself (a
   refused request, a missing example deck, a reduction that did not
   run).  The committed BENCH_1.json ... BENCH_9.json files are the
   history of the earlier per-part formats and are never written
   again. *)

module E = Snoise.Experiments
module R = Snoise.Report
module Flow = Snoise.Flow
module J = Sn_json.Json
module El = Sn_circuit.Element
module Eng = Sn_engine
module N = Sn_numerics

let fmt = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* result shape *)

type op = Le | Ge | Lt | Gt

(* a gate compares a measured value against its bound, or asserts a
   property ("holds") *)
type check = Cmp of float * op * float | Holds of bool

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  gates : (string * check) list;
}

let le name v bound = (name, Cmp (v, Le, bound))
let ge name v bound = (name, Cmp (v, Ge, bound))
let lt name v bound = (name, Cmp (v, Lt, bound))
let gt name v bound = (name, Cmp (v, Gt, bound))
let holds name b = (name, Holds b)
let count name n = (name, float_of_int n, "count")

let passes = function
  | Holds b -> b
  | Cmp (v, Le, b) -> v <= b
  | Cmp (v, Ge, b) -> v >= b
  | Cmp (v, Lt, b) -> v < b
  | Cmp (v, Gt, b) -> v > b

let op_string = function Le -> "<=" | Ge -> ">=" | Lt -> "<" | Gt -> ">"

(* ------------------------------------------------------------------ *)
(* shared helpers *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* min-of-N: the cleanest estimator for a fixed workload under
   scheduler noise *)
let min_of ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (snd (time f))
  done;
  !best

let mesh_node i j = Printf.sprintf "n%d_%d" i j

(* An [n_side] x [n_side] RC mesh (100 ohm along i, 130 ohm along j,
   [farads] from every node to ground) driven at corner n0_0 through
   50 ohm by a unit AC source; [extra] elements join the same deck. *)
let rc_mesh ~n_side ~farads extra =
  let elems = ref [] in
  let emit e = elems := e :: !elems in
  for i = 0 to n_side - 1 do
    for j = 0 to n_side - 1 do
      let here = mesh_node i j in
      if i < n_side - 1 then
        emit
          (El.Resistor
             { name = Printf.sprintf "rr%d_%d" i j; n1 = here;
               n2 = mesh_node (i + 1) j; ohms = 100.0 });
      if j < n_side - 1 then
        emit
          (El.Resistor
             { name = Printf.sprintf "rd%d_%d" i j; n1 = here;
               n2 = mesh_node i (j + 1); ohms = 130.0 });
      emit
        (El.Capacitor
           { name = Printf.sprintf "cg%d_%d" i j; n1 = here; n2 = "0";
             farads })
    done
  done;
  List.iter emit extra;
  emit
    (El.Vsource
       { name = "vin"; np = "emf"; nn = "0";
         wave = Sn_circuit.Waveform.dc 0.0; ac_mag = 1.0 });
  emit
    (El.Resistor { name = "rsrc"; n1 = "emf"; n2 = mesh_node 0 0; ohms = 50.0 });
  Sn_circuit.Netlist.create ~title:"bench RC mesh" !elems

(* An RC ladder: [stages] sections of (100 + k) ohm in series and 1 pF
   to ground, behind a 50 ohm source, closed by 1 k at node "out". *)
let rc_ladder ~stages =
  let node k = if k > stages then "out" else Printf.sprintf "n%d" k in
  Sn_circuit.Netlist.create ~title:"bench RC ladder"
    (El.Vsource
       { name = "vin"; np = "in"; nn = "0";
         wave = Sn_circuit.Waveform.dc 1.0; ac_mag = 1.0 }
    :: El.Resistor { name = "rin"; n1 = "in"; n2 = node 1; ohms = 50.0 }
    :: El.Resistor { name = "rload"; n1 = "out"; n2 = "0"; ohms = 1000.0 }
    :: List.concat
         (List.init stages (fun k ->
              let k = k + 1 in
              [ El.Resistor
                  { name = Printf.sprintf "r%d" k; n1 = node k;
                    n2 = node (k + 1); ohms = 100.0 +. float_of_int k };
                El.Capacitor
                  { name = Printf.sprintf "c%d" k; n1 = node k; n2 = "0";
                    farads = 1.0e-12 } ])))

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's evaluation section, every table and figure (the
   rows/series the paper reports, with its values quoted inline), then
   four ablations: substrate grid resolution, the classical flow
   without interconnect R, backside metallization, process corners. *)

let part1 ~small:_ =
  let fig3, fig3_s = time E.fig3 in
  R.fig3 fmt fig3;
  let figures =
    List.map
      (fun (name, render) -> (name ^ "_s", snd (time render), "s"))
      [ ("sec3", fun () -> R.sec3 fmt (E.sec3_numbers ()));
        ("fig7", fun () -> R.fig7 fmt (E.fig7 ()));
        ("fig8", fun () -> R.fig8 fmt (E.fig8 ()));
        ("fig9", fun () -> R.fig9 fmt (E.fig9 ()));
        ("fig10", fun () -> R.fig10 fmt (E.fig10 ()));
        ("vco_card", fun () -> R.vco_card fmt (E.vco_card ()));
        ("aggressor", fun () -> R.aggressor fmt (E.aggressor_comb ()));
        ("runtime", fun () -> R.runtime fmt (E.runtime ())) ]
  in
  Format.pp_print_flush fmt ();
  (* grid resolution: the DESIGN.md convergence study *)
  let grid =
    List.concat_map
      (fun (nx, z) ->
        let options =
          { Flow.default_options with
            Flow.grid = { Sn_substrate.Grid.nx; ny = nx; z_per_layer = Some z } }
        in
        let flow = Flow.build_nmos ~options Sn_testchip.Nmos_structure.default in
        let cells =
          match Sn_substrate.Extractor.last_stats () with
          | Some s -> s.Sn_substrate.Extractor.grid_cells
          | None -> 0
        in
        let key = Printf.sprintf "grid.%d." nx in
        [ count (key ^ "cells") cells;
          (key ^ "divider_inv", 1.0 /. Flow.nmos_divider flow, "ratio") ])
      [ (32, [ 1; 3; 2; 1 ]); (48, [ 1; 4; 3; 2 ]); (64, [ 1; 5; 3; 2 ]);
        (80, [ 1; 5; 3; 2 ]) ]
  in
  (* interconnect resistance: the headline claim *)
  let interconnect =
    [ ("interconnect.divider_inv", 1.0 /. fig3.E.divider, "ratio");
      ("interconnect.divider_inv_ideal", 1.0 /. fig3.E.divider_no_r, "ratio");
      ( "interconnect.underestimate_db",
        20.0 *. log10 (fig3.E.divider /. fig3.E.divider_no_r),
        "dB" ) ]
  in
  (* backside metallization: the strongest countermeasure the substrate
     extractor can evaluate *)
  let backplane =
    let module G = Sn_geometry in
    let module Port = Sn_substrate.Port in
    let die = G.Rect.make 0.0 0.0 100.0 100.0 in
    let ports =
      [ Port.v ~name:"inj" ~kind:Port.Resistive
          [ G.Rect.make 5.0 45.0 15.0 55.0 ];
        Port.v ~name:"vic" ~kind:Port.Probe
          [ G.Rect.make 80.0 45.0 90.0 55.0 ];
        Port.v ~name:"tap" ~kind:Port.Resistive
          [ G.Rect.make 45.0 5.0 55.0 15.0 ] ]
    in
    let cfg =
      { Sn_substrate.Grid.nx = 32; ny = 32; z_per_layer = Some [ 1; 3; 2; 2 ] }
    in
    let coupling_db ~backplane ~grounded =
      let m =
        Sn_substrate.Extractor.extract ~config:cfg
          ~grounded_backplane:backplane ~tech:Sn_tech.Tech.imec018 ~die ports
      in
      20.0
      *. log10 (Sn_substrate.Macromodel.divider m ~inject:"inj" ~sense:"vic" ~grounded)
    in
    let open_back = coupling_db ~backplane:false ~grounded:[ "tap" ] in
    let plated = coupling_db ~backplane:true ~grounded:[ "tap"; "backplane" ] in
    [ ("backplane.open_db", open_back, "dB");
      ("backplane.grounded_db", plated, "dB");
      ("backplane.gain_db", open_back -. plated, "dB") ]
  in
  (* process corners: the sign-off spread of the spur at fc + 10 MHz *)
  let corners =
    let results = Snoise.Corners.vco_spread () in
    List.map
      (fun (r : Snoise.Corners.vco_corner_result) ->
        ( Printf.sprintf "corner.%s.spur_dbm"
            r.Snoise.Corners.corner.Snoise.Corners.name,
          r.Snoise.Corners.spur_at_10mhz_dbm,
          "dBm" ))
      results
    @ [ ("corners.spread_db", Snoise.Corners.spread_db results, "dB") ]
  in
  {
    metrics =
      (("fig3_s", fig3_s, "s") :: figures) @ grid @ interconnect @ backplane
      @ corners;
    gates = [];
  }

(* ------------------------------------------------------------------ *)
(* Part 3: domain-parallel sweep scaling

   The workload is the fig8 point evaluation — spur model plus the
   behavioral "measurement" leg (64k-sample synthesis + windowed DFT
   readback) — over a 16-point frequency sweep, repeated at pool
   widths 1/2/4/8.  Width 1 is the exact sequential path, so the
   speedup is directly parallel-vs-sequential, and every width must
   return the sequential result bit for bit. *)

let part3 ~small:_ =
  let module Pool = Eng.Pool in
  let flow = Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.0 in
  let f_noise = N.Sweep.logspace 1.0e6 15.0e6 16 in
  let h = Flow.vco_transfers flow ~f_noise in
  let osc = Flow.vco_oscillator flow in
  let point fn =
    let spur = Flow.vco_spur flow ~h ~p_noise_dbm:(-5.0) ~f_noise:fn in
    let beta, m_am =
      Sn_rf.Impact.total_modulation osc ~h:(h fn) ~a_noise:0.178 ~f_noise:fn
    in
    let samples =
      Sn_rf.Behavioral.synthesize ~carrier_freq:64.0e6
        ~amplitude:osc.Sn_rf.Impact.amplitude
        ~tones:[ { Sn_rf.Behavioral.f_noise = fn; beta; m_am } ]
        ~fs:320.0e6 ~n:65536
    in
    let upper =
      Sn_rf.Behavioral.measured_sideband_dbm samples ~fs:320.0e6
        ~carrier_freq:64.0e6 ~f_noise:fn `Upper
    in
    (spur.Sn_rf.Impact.upper_dbm, upper)
  in
  let points = Array.to_list f_noise in
  let runs = 3 in
  let width jobs =
    let pool = Pool.create ~jobs () in
    ignore (Pool.map_list pool point points) (* warm-up *);
    Pool.reset_stats pool;
    let last = ref [] in
    let (), total =
      time (fun () ->
          for _ = 1 to runs do
            last := Pool.map_list pool point points
          done)
    in
    let stats = Pool.stats pool in
    Pool.shutdown pool;
    (jobs, total /. float_of_int runs, stats, !last)
  in
  let curves = List.map width [ 1; 2; 4; 8 ] in
  let seq_wall, seq_result =
    match curves with (_, w, _, r) :: _ -> (w, r) | [] -> assert false
  in
  let curve (jobs, wall, stats, _) =
    let key = Printf.sprintf "jobs.%d." jobs in
    [ (key ^ "wall_s", wall, "s");
      (key ^ "speedup", seq_wall /. wall, "ratio");
      (key ^ "cpu_s", Pool.cpu_seconds stats, "s");
      (key ^ "imbalance", Pool.imbalance stats, "ratio") ]
  in
  {
    metrics =
      count "points" (List.length points)
      :: count "runs_per_width" runs
      :: List.concat_map curve curves;
    gates =
      [ holds "parallel_identical"
          (List.for_all (fun (_, _, _, r) -> r = seq_result) curves) ];
  }

(* ------------------------------------------------------------------ *)
(* Part 4: robustness-layer overhead on the healthy path

   The rescue ladder threads fault-injection polls and attempt
   recording through the DC and transient hot paths.  A healthy run
   never climbs past the plain Newton rung, so the cost must stay in
   the noise.  Two probes: a long fixed-step linear transient (the
   frozen-LU fast path, where a per-step poll would show up first) and
   the full fig7 spur sweep.  Each runs with the fault hook disarmed
   and with a fault armed that can never fire — the worst case for the
   polling cost, since every factorization bumps the atomic counter. *)

let part4 ~small:_ =
  let module Fault = Eng.Fault in
  let rc_ladder =
    Sn_circuit.Netlist.create
      (El.Vsource
         { name = "v1"; np = "in"; nn = "0";
           wave = Sn_circuit.Waveform.dc 1.0; ac_mag = 0.0 }
      :: List.concat
           (List.init 40 (fun k ->
                let a = if k = 0 then "in" else Printf.sprintf "n%d" k in
                let b = Printf.sprintf "n%d" (k + 1) in
                [ El.Resistor
                    { name = Printf.sprintf "r%d" k; n1 = a; n2 = b;
                      ohms = 100.0 };
                  El.Capacitor
                    { name = Printf.sprintf "c%d" k; n1 = b; n2 = "0";
                      farads = 1e-12 } ])))
  in
  let tran_workload () =
    ignore (Eng.Tran.simulate ~tstop:2.0e-7 ~dt:1.0e-10 rc_ladder)
  in
  let fig7_workload () = ignore (E.fig7 ~f_noise:10.0e6 ()) in
  (* mean over [runs] after one warm-up *)
  let mean_time ~runs f =
    f ();
    let (), total =
      time (fun () ->
          for _ = 1 to runs do
            f ()
          done)
    in
    total /. float_of_int runs
  in
  let probe (name, runs, f) =
    Fault.disarm ();
    let off = mean_time ~runs f in
    (* armed but unreachable: pure polling cost *)
    Fault.arm Fault.Factor (Fault.Nth max_int);
    let on_ = mean_time ~runs f in
    Fault.disarm ();
    [ count (name ^ ".runs") runs;
      (name ^ ".disarmed_s", off, "s");
      (name ^ ".armed_idle_s", on_, "s");
      (name ^ ".overhead_ratio", on_ /. off, "ratio") ]
  in
  {
    metrics =
      List.concat_map probe
        [ ("tran_fixed_step", 5, tran_workload); ("fig7_sweep", 2, fig7_workload) ];
    gates = [];
  }

(* ------------------------------------------------------------------ *)
(* Part 5: the sparse complex frequency-domain engine

   An RC mesh of 18 x 18 nodes (326 unknowns) swept over 120
   log-spaced frequency points.  The sparse engine (one compiled
   G + jwB plan, one symbolic factorization, slot-replay refills) is
   compared against the dense reference formulation (full matrix
   assembly + dense complex LU per point), timed on a subset of points
   and extrapolated.  The same mesh drives the adjoint noise
   comparison: transpose solve on the shared sparse factorization
   versus the materialized-transpose dense solve.  Gates: agreement
   within 1e-9 relative, and jobs=1 vs jobs=4 byte-identity. *)

let part5 ~small:_ =
  let n_side = 18 in
  let nl = rc_mesh ~n_side ~farads:0.5e-12 [] in
  let mna = Eng.Mna.build nl in
  let plan = Eng.Stamp_plan.build mna in
  let dc = Eng.Dc.solve_mna mna in
  let out = mesh_node (n_side - 1) (n_side - 1) in
  let out_slot = Eng.Mna.node_slot mna out in
  let dim = Eng.Mna.dim mna in
  let n_pts = 120 in
  let freqs = N.Sweep.logspace 1.0e6 1.0e9 n_pts in
  (* sparse AC sweep, sequential *)
  Eng.Pool.set_default_jobs 1;
  ignore (Eng.Ac.sweep ~dc nl ~freqs:[| 1.0e6 |] ~nodes:[ out ]) (* warm-up *);
  let seq, t_sparse =
    time (fun () -> Eng.Ac.sweep ~dc nl ~freqs ~nodes:[ out ])
  in
  (* dense reference on a subset of points, extrapolated *)
  let subset = [| 0; n_pts / 3; 2 * n_pts / 3; n_pts - 1 |] in
  let extrapolate t = t /. float_of_int (Array.length subset) *. float_of_int n_pts in
  let worst = Array.fold_left Float.max 0.0 in
  let ac_errs, t_dense_sub =
    time (fun () ->
        Array.map
          (fun k ->
            let omega = N.Units.two_pi *. freqs.(k) in
            let a, rhs = Eng.Ac.system_of_plan plan dc ~omega in
            let v_ref = (N.Lu.Cplx.solve_matrix a rhs).(out_slot) in
            let v = List.assoc out seq.(k).Eng.Ac.values in
            Complex.norm (Complex.sub v v_ref)
            /. Float.max (Complex.norm v_ref) 1e-300)
          subset)
  in
  (* parallel byte-identity *)
  Eng.Pool.set_default_jobs 4;
  let par = Eng.Ac.sweep ~dc nl ~freqs ~nodes:[ out ] in
  Eng.Pool.set_default_jobs 1;
  (* adjoint noise on the shared sparse factorization *)
  let noise_pts, t_noise =
    time (fun () -> Eng.Noise.analyze ~dc nl ~output:out ~freqs)
  in
  let noise_arr = Array.of_list noise_pts in
  (* dense adjoint baseline: materialized transpose + dense complex LU
     per point, what the noise engine used to do *)
  let transpose m =
    let n = Array.length m in
    Array.init n (fun i -> Array.init n (fun j -> m.(j).(i)))
  in
  let e_out =
    Array.init dim (fun i -> if i = out_slot then Complex.one else Complex.zero)
  in
  let four_kt = 4.0 *. 1.380649e-23 *. 300.0 in
  let slot = Eng.Mna.node_slot mna in
  let dense_noise_at k =
    let omega = N.Units.two_pi *. freqs.(k) in
    let a, _ = Eng.Ac.system_of_plan plan dc ~omega in
    let y = N.Lu.Cplx.solve_matrix (transpose a) e_out in
    let g s = if s < 0 then Complex.zero else y.(s) in
    List.fold_left
      (fun acc e ->
        match e with
        | El.Resistor { n1; n2; ohms; _ } ->
          let h = Complex.sub (g (slot n1)) (g (slot n2)) in
          acc +. (Complex.norm2 h *. (four_kt /. ohms))
        | _ -> acc)
      0.0 (Sn_circuit.Netlist.elements nl)
  in
  let noise_errs, t_noise_dense_sub =
    time (fun () ->
        Array.map
          (fun k ->
            let ref_psd = dense_noise_at k in
            Float.abs (noise_arr.(k).Eng.Noise.total_psd -. ref_psd)
            /. Float.max ref_psd 1e-300)
          subset)
  in
  Eng.Pool.set_default_jobs (Eng.Pool.env_jobs ());
  let max_ac_err = worst ac_errs and max_noise_err = worst noise_errs in
  let t_dense_est = extrapolate t_dense_sub in
  let t_noise_dense_est = extrapolate t_noise_dense_sub in
  {
    metrics =
      [ count "unknowns" dim;
        count "freq_points" n_pts;
        ("ac.sparse_s", t_sparse, "s");
        ("ac.dense_est_s", t_dense_est, "s");
        ("ac.speedup", t_dense_est /. t_sparse, "ratio");
        ("ac.max_rel_err", max_ac_err, "ratio");
        ("noise.sparse_s", t_noise, "s");
        ("noise.dense_est_s", t_noise_dense_est, "s");
        ("noise.speedup", t_noise_dense_est /. t_noise, "ratio");
        ("noise.max_rel_err", max_noise_err, "ratio") ];
    gates =
      [ le "ac.max_rel_err" max_ac_err 1e-9;
        le "noise.max_rel_err" max_noise_err 1e-9;
        holds "ac.parallel_identical" (seq = par) ];
  }

(* ------------------------------------------------------------------ *)
(* Part 6: substrate extraction at scale

   Wall time of the macromodel extraction versus lateral grid size,
   48^2 up to 512^2 surface cells (over a million FDM nodes at the
   top), multigrid-preconditioned CG against the direct star-mesh
   elimination.  Direct is measured only at the small sizes and
   power-law extrapolated past them (the measured-subset idiom of
   part 5); per-size CG iteration counts show the growth that makes
   the scaling possible.  One extraction runs cold then warm against
   a throwaway cache directory (warm must hit the cache and run zero
   CG iterations), and jobs=1 vs jobs=4 byte-identity and
   small-grid agreement with the direct oracle are gated.  "small"
   trims the size ladder for CI. *)

let part6 ~small =
  let module G = Sn_geometry in
  let module Sub = Sn_substrate in
  let module X = Sub.Extractor in
  let module Port = Sub.Port in
  let module Mac = Sub.Macromodel in
  let module Pool = Eng.Pool in
  let die = G.Rect.make 0.0 0.0 400.0 400.0 in
  let ports =
    [ Port.v ~name:"agg" ~kind:Port.Resistive
        [ G.Rect.make 40.0 40.0 120.0 120.0 ];
      Port.v ~name:"vic" ~kind:Port.Resistive
        [ G.Rect.make 280.0 280.0 360.0 360.0 ];
      Port.v ~name:"ring" ~kind:Port.Resistive
        [ G.Rect.make 40.0 280.0 120.0 360.0 ];
      Port.v ~name:"tap" ~kind:Port.Resistive
        [ G.Rect.make 280.0 40.0 360.0 120.0 ];
      Port.v ~name:"probe" ~kind:Port.Probe
        [ G.Rect.make 180.0 180.0 220.0 220.0 ] ]
  in
  let cfg n = { Sub.Grid.nx = n; ny = n; z_per_layer = Some [ 1; 1; 1; 1 ] } in
  let extract ?cache n =
    X.extract ~config:(cfg n) ?cache ~tech:Sn_tech.Tech.imec018 ~die ports
  in
  let sizes = if small then [| 32; 48 |] else [| 48; 96; 128; 192; 256; 512 |] in
  let direct_limit = 96 in
  let entries m =
    let np = N.Mat.rows m.Mac.conductance in
    Array.init (np * np) (fun k -> N.Mat.get m.Mac.conductance (k / np) (k mod np))
  in
  let identical a b =
    Array.map Int64.bits_of_float (entries a)
    = Array.map Int64.bits_of_float (entries b)
  in
  let max_rel_err a b =
    let ea = entries a and eb = entries b in
    let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1e-300 ea in
    let worst = ref 0.0 in
    Array.iteri
      (fun k x -> worst := Float.max !worst (Float.abs (x -. eb.(k)) /. scale))
      ea;
    !worst
  in
  (* direct elimination measured at the small sizes; a power-law fit
     in cell count extrapolates the rest *)
  let direct_measured = ref [] in
  let accuracy_err = ref 0.0 in
  let row n =
    let mg, t_mg = time (fun () -> extract n) in
    let st = Option.get (X.last_stats ()) in
    let cells = st.X.grid_cells in
    let direct_s, estimated =
      if n <= direct_limit then begin
        let dm, t_d =
          time (fun () ->
              Sub.Elimination.reduce_grid ~config:(cfg n)
                ~tech:Sn_tech.Tech.imec018 ~die ports)
        in
        accuracy_err := Float.max !accuracy_err (max_rel_err dm mg);
        direct_measured := (float_of_int cells, t_d) :: !direct_measured;
        (t_d, false)
      end
      else begin
        (* fit t = c * cells^alpha through the measured pairs *)
        let pairs = !direct_measured in
        let alpha, c =
          match pairs with
          | (c1, t1) :: _ ->
            let cn, tn = List.nth pairs (List.length pairs - 1) in
            let alpha =
              if List.length pairs > 1 && tn > 0.0 && t1 > 0.0 then
                Float.max 1.0 (log (t1 /. tn) /. log (c1 /. cn))
              else 1.5
            in
            (alpha, t1 /. (c1 ** alpha))
          | [] -> (1.5, 1e-6)
        in
        (c *. (float_of_int cells ** alpha), true)
      end
    in
    let key = Printf.sprintf "grid.%d." n in
    ( [ count (key ^ "cells") cells;
        (key ^ "mgcg_s", t_mg, "s");
        count (key ^ "cg_iterations") st.X.cg_iterations_total;
        count (key ^ "mg_levels") st.X.mg_levels;
        ((key ^ if estimated then "direct_est_s" else "direct_s"), direct_s, "s") ],
      [ gt (key ^ "cells") (float_of_int cells) 0.0;
        ge (key ^ "cg_iterations") (float_of_int st.X.cg_iterations_total) 0.0 ],
      direct_s /. t_mg )
  in
  let rows = Array.to_list (Array.map row sizes) in
  let largest_speedup =
    match List.rev rows with (_, _, s) :: _ -> s | [] -> nan
  in
  (* extraction cold vs warm cache *)
  let n_cache = if small then 48 else 96 in
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "snoise_bench_cache_%d" (Unix.getpid ()))
  in
  if Sys.file_exists cache_dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat cache_dir f))
      (Sys.readdir cache_dir);
  let cache = Sub.Cache.create ~dir:cache_dir in
  let cold, t_cold = time (fun () -> extract ~cache n_cache) in
  let st_cold = Option.get (X.last_stats ()) in
  let warm, t_warm = time (fun () -> extract ~cache n_cache) in
  let st_warm = Option.get (X.last_stats ()) in
  (* worker-count determinism *)
  let n_par = if small then 48 else 96 in
  Pool.set_default_jobs 1;
  let seq = extract n_par in
  Pool.set_default_jobs 4;
  let par = extract n_par in
  Pool.set_default_jobs (Pool.env_jobs ());
  {
    metrics =
      count "ports" (List.length ports)
      :: List.concat_map (fun (m, _, _) -> m) rows
      @ [ ("accuracy.max_rel_err", !accuracy_err, "ratio");
          ("largest.speedup", largest_speedup, "ratio");
          count "cache.grid_nx" n_cache;
          ("cache.cold_s", t_cold, "s");
          ("cache.warm_s", t_warm, "s");
          count "cache.warm_hits" st_warm.X.cache_hits;
          count "cache.warm_cg_iterations" st_warm.X.cg_iterations_total ];
    gates =
      [ ge "ports" (float_of_int (List.length ports)) 1.0;
        ge "grids" (float_of_int (List.length rows)) 1.0 ]
      @ List.concat_map (fun (_, g, _) -> g) rows
      @ [ le "accuracy.max_rel_err" !accuracy_err 1e-8 ]
      @ (if small then [] else [ ge "largest.speedup" largest_speedup 10.0 ])
      @ [ holds "cache.cold_all_miss"
            (st_cold.X.cache_hits = 0 && st_cold.X.cache_misses = 1);
          holds "cache.warm_all_hit"
            (st_warm.X.cache_hits = 1 && st_warm.X.cache_misses = 0);
          le "cache.warm_cg_iterations"
            (float_of_int st_warm.X.cg_iterations_total) 0.0;
          holds "cache.warm_identical" (identical cold warm);
          holds "parallel_identical" (identical seq par) ];
  }

(* ------------------------------------------------------------------ *)
(* Part 7: resident service throughput

   The workload [snoise serve] exists for: the same deck requested
   over and over.  Cold serves every request with the plan cache
   cleared, so each one re-parses, re-lints, re-compiles and
   re-factorizes; warm serves hit the compiled plan, the memoized DC
   bias and the cached AC factorization.  The part also gates the
   batching contract outside the unit tests: a drained batch of ac
   sweeps must be byte-identical to serving the same requests one at a
   time, at pool widths 1 and 4. *)

let part7 ~small =
  let module Sv = Sn_server.Service in
  let module Pc = Sn_server.Plan_cache in
  (* a ladder big enough that compiling the deck (parse + lint + MNA +
     stamp plan + DC bias + AC factorization) dwarfs one warm
     three-point solve *)
  let stages = if small then 80 else 160 in
  let deck = Sn_circuit.Spice.to_string (rc_ladder ~stages) in
  let ac_line ?(id = 1) freqs =
    J.to_string
      (J.Obj
         [
           ("id", J.Num (float_of_int id));
           ("verb", J.Str "ac");
           ("deck", J.Str deck);
           ( "params",
             J.Obj
               [
                 ("freqs", J.Arr (List.map (fun f -> J.Num f) freqs));
                 ("nodes", J.Arr [ J.Str "out" ]);
               ] );
         ])
  in
  let member name j =
    match J.member name j with
    | Some v -> v
    | None ->
      failwith
        (Printf.sprintf "bench part7: reply lacks %S: %s" name (J.to_string j))
  in
  let handle1 svc line =
    match Sv.handle svc ~client:1 line with
    | [ r ] ->
      (match J.member "error" r with
      | Some e -> failwith ("bench part7: request refused: " ^ J.to_string e)
      | None -> r)
    | rs ->
      failwith
        (Printf.sprintf "bench part7: expected 1 reply, got %d" (List.length rs))
  in
  let line = ac_line [ 1e6; 5e6; 2e7 ] in
  let svc = Sv.create () in
  (* cold: clear the cache before every request *)
  let n_cold = if small then 5 else 10 in
  let (), t_cold =
    time (fun () ->
        for _ = 1 to n_cold do
          Pc.clear (Sv.cache svc);
          ignore (handle1 svc line)
        done)
  in
  let cold_rps = float_of_int n_cold /. t_cold in
  (* warm: prime once, then serve from the caches *)
  ignore (handle1 svc line);
  let n_warm = if small then 50 else 200 in
  let last = ref J.Null in
  let (), t_warm =
    time (fun () ->
        for _ = 1 to n_warm do
          last := handle1 svc line
        done)
  in
  let warm_rps = float_of_int n_warm /. t_warm in
  let warm_hit = member "plan" (member "served" !last) = J.Str "hit" in
  let speedup = warm_rps /. cold_rps in
  (* batching contract: (every reply coalesced, every reply
     byte-identical to one-at-a-time serving) at pool width [jobs] *)
  let freq_sets = [ [ 1e6; 3e6 ]; [ 2e6 ]; [ 1e6; 5e6; 9e6 ]; [ 3e6; 2e6 ] ] in
  let result_str reply = J.to_string (member "result" reply) in
  let batch jobs =
    Snoise.Sweep.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Snoise.Sweep.set_jobs 1)
      (fun () ->
        let batched = Sv.create () in
        List.iteri
          (fun i freqs ->
            match Sv.submit batched ~client:1 (ac_line ~id:i freqs) with
            | `Queued -> ()
            | _ -> failwith "bench part7: batch submit not queued")
          freq_sets;
        let replies = List.map snd (Sv.drain batched) in
        let indiv = Sv.create () in
        let size = J.Num (float_of_int (List.length freq_sets)) in
        ( List.for_all (fun b -> member "batched" (member "served" b) = size) replies,
          List.for_all Fun.id
            (List.mapi
               (fun i freqs ->
                 String.equal
                   (result_str (List.nth replies i))
                   (result_str (handle1 indiv (ac_line ~id:i freqs))))
               freq_sets) ))
  in
  let coalesced1, identical1 = batch 1 in
  let coalesced4, identical4 = batch 4 in
  {
    metrics =
      [ count "deck_stages" stages;
        count "cold_requests" n_cold;
        count "warm_requests" n_warm;
        ("cold_rps", cold_rps, "1/s");
        ("warm_rps", warm_rps, "1/s");
        ("warm_over_cold", speedup, "ratio");
        count "batch.requests" (List.length freq_sets) ];
    gates =
      [ gt "deck_stages" (float_of_int stages) 0.0;
        gt "cold_rps" cold_rps 0.0;
        gt "warm_rps" warm_rps 0.0;
        (if small then gt "warm_over_cold" speedup 1.0
         else ge "warm_over_cold" speedup 10.0);
        holds "warm_plan_hit" warm_hit;
        ge "batch.requests" (float_of_int (List.length freq_sets)) 2.0;
        holds "batch.coalesced" (coalesced1 && coalesced4);
        holds "batch.identical.jobs1" identical1;
        holds "batch.identical.jobs4" identical4 ];
  }

(* ------------------------------------------------------------------ *)
(* Part 8: cooperative-cancellation overhead

   The deadline machinery polls an ambient token at iteration
   boundaries of every long-running loop.  On the serving layer's hot
   path — a warm AC sweep over a compiled plan — that poll must be
   noise: this part times the same sweep with no token installed
   (disarmed, the production default) and with an unreachable-deadline
   token armed; the full workload gates the armed/disarmed ratio at
   1.05.  A second probe arms an already-expired deadline and checks
   that the sweep actually stops, with partial progress recorded — the
   other half of the contract. *)

let part8 ~small =
  let stages = if small then 60 else 120 in
  let compiled = Flow.compile_deck ~lint:false (rc_ladder ~stages) in
  let acp = Flow.compiled_ac_plan compiled in
  let freqs =
    Array.init (if small then 64 else 256) (fun i ->
        1.0e6 *. (1.0 +. float_of_int i))
  in
  let nodes = [ "out" ] in
  (* pin the symbolic factorization before timing anything *)
  ignore (Eng.Ac.sweep_plan acp ~freqs:[| 1.0e6 |] ~nodes);
  let sweep () = Eng.Ac.sweep_plan acp ~freqs ~nodes in
  let reps = if small then 5 else 9 in
  let disarmed = min_of ~reps sweep in
  let far = N.Cancel.create ~deadline:(Unix.gettimeofday () +. 3600.0) () in
  let armed = min_of ~reps (fun () -> N.Cancel.with_token far sweep) in
  let ratio = armed /. disarmed in
  (* an expired token stops the sweep at an iteration boundary *)
  let expired = N.Cancel.create ~deadline:(Unix.gettimeofday () -. 1.0) () in
  let fired, progress =
    match N.Cancel.with_token expired sweep with
    | _ -> (false, 0)
    | exception N.Cancel.Cancelled tok -> (true, N.Cancel.progress tok)
  in
  {
    metrics =
      [ count "deck_stages" stages;
        count "freq_points" (Array.length freqs);
        count "reps" reps;
        ("disarmed_ms", disarmed *. 1.0e3, "ms");
        ("armed_ms", armed *. 1.0e3, "ms");
        ("overhead_ratio", ratio, "ratio");
        count "cancelled_after_iterations" progress ];
    gates =
      [ gt "deck_stages" (float_of_int stages) 0.0;
        gt "disarmed_ms" (disarmed *. 1.0e3) 0.0;
        gt "armed_ms" (armed *. 1.0e3) 0.0;
        (if small then gt "overhead_ratio" ratio 0.0
         else le "overhead_ratio" ratio 1.05);
        holds "deadline_fires" fired;
        ge "cancelled_after_iterations" (float_of_int progress) 0.0 ];
  }

(* ------------------------------------------------------------------ *)
(* Part 9: PRIMA model-order reduction on the AC hot path

   The universal-macromodel claim: swapping a merged model's passive
   pool (an RC mesh standing in for the coupled interconnect bus, plus
   a real extracted substrate macromodel tying its corners through
   silicon) for its rank-k PRIMA realization must buy at least 5x on a
   warm AC sweep while tracking the exact port transfer to 1e-4 over
   the band — and stay byte-identical at jobs=1 vs jobs=4, like every
   other parallel surface. *)

let part9 ~small =
  let module Rm = Snoise.Reduced_model in
  let module Rect = Sn_geometry.Rect in
  let n_side = if small then 14 else 20 in
  let last = n_side - 1 in
  (* a real extracted substrate macromodel, its ports named after the
     mesh corners so the silicon couplings join the same passive pool *)
  let corner_port (i, j) rect =
    Sn_substrate.Port.v ~name:(mesh_node i j) ~kind:Sn_substrate.Port.Resistive
      [ rect ]
  in
  let macro =
    Sn_substrate.Extractor.extract
      ~config:{ Sn_substrate.Grid.nx = 12; ny = 12; z_per_layer = Some [ 1; 1; 1; 1 ] }
      ~tech:Sn_tech.Tech.imec018
      ~die:(Rect.make 0.0 0.0 60.0 60.0)
      [ corner_port (0, 0) (Rect.make 5.0 5.0 15.0 15.0);
        corner_port (0, last) (Rect.make 45.0 5.0 55.0 15.0);
        corner_port (last, 0) (Rect.make 5.0 45.0 15.0 55.0);
        corner_port (last, last) (Rect.make 45.0 45.0 55.0 55.0) ]
  in
  let nl =
    rc_mesh ~n_side ~farads:0.1e-12
      (List.mapi
         (fun k (p1, p2, ohms) ->
           El.Resistor { name = Printf.sprintf "rsub%d" k; n1 = p1; n2 = p2; ohms })
         (Sn_substrate.Macromodel.to_resistors macro))
  in
  let out = mesh_node last last in
  let config =
    { Rm.default_config with Rm.order = Rm.Auto 1e-6; band = (1.0e6, 1.0e9) }
  in
  let red, build_s = time (fun () -> Rm.reduce_deck ~config ~keep:[ out ] nl) in
  let stats =
    match Rm.last_stats () with
    | Some s -> s
    | None -> failwith "bench part9: reduction did not run"
  in
  let n_exact = List.length (Sn_circuit.Netlist.nodes nl) in
  let n_red = List.length (Sn_circuit.Netlist.nodes red) in
  let n_pts = if small then 40 else 96 in
  let freqs = N.Sweep.logspace 1.0e6 1.0e9 n_pts in
  let dc_exact = Eng.Dc.solve nl and dc_red = Eng.Dc.solve red in
  let sweep ~dc deck = Eng.Ac.sweep ~dc deck ~freqs ~nodes:[ out ] in
  (* warm both paths before timing (symbolic factorization, plans) *)
  ignore (sweep ~dc:dc_exact nl);
  ignore (sweep ~dc:dc_red red);
  let reps = if small then 5 else 9 in
  Eng.Pool.set_default_jobs 1;
  let t_exact = min_of ~reps (fun () -> sweep ~dc:dc_exact nl) in
  let t_red = min_of ~reps (fun () -> sweep ~dc:dc_red red) in
  let speedup = t_exact /. t_red in
  (* matched accuracy: pointwise port-transfer error over the band *)
  let pts_exact = sweep ~dc:dc_exact nl in
  let pts_red = sweep ~dc:dc_red red in
  let max_err = ref 0.0 in
  Array.iteri
    (fun k (pt : Eng.Ac.sweep_point) ->
      let ve = List.assoc out pt.Eng.Ac.values in
      let vr = List.assoc out pts_red.(k).Eng.Ac.values in
      max_err :=
        Float.max !max_err
          (Complex.norm (Complex.sub ve vr) /. Float.max (Complex.norm ve) 1e-300))
    pts_exact;
  (* parallel byte-identity on the reduced path *)
  Eng.Pool.set_default_jobs 4;
  let pts_par = sweep ~dc:dc_red red in
  Eng.Pool.set_default_jobs (Eng.Pool.env_jobs ());
  let fi = float_of_int in
  {
    metrics =
      [ count "mesh_side" n_side;
        count "deck_nodes" n_exact;
        count "reduced_nodes" n_red;
        count "ports" stats.Rm.ports;
        count "internal" stats.Rm.internal;
        count "rank" stats.Rm.rank;
        count "order" stats.Rm.order;
        ("build_ms", build_s *. 1.0e3, "ms");
        count "freq_points" n_pts;
        count "reps" reps;
        ("exact_ms", t_exact *. 1.0e3, "ms");
        ("reduced_ms", t_red *. 1.0e3, "ms");
        ("speedup", speedup, "ratio");
        ("max_rel_err", !max_err, "ratio") ];
    gates =
      [ gt "mesh_side" (fi n_side) 0.0;
        lt "reduced_nodes" (fi n_red) (fi n_exact);
        lt "rank" (fi stats.Rm.rank) (fi stats.Rm.internal);
        gt "exact_ms" (t_exact *. 1.0e3) 0.0;
        gt "reduced_ms" (t_red *. 1.0e3) 0.0;
        le "max_rel_err" !max_err 1e-4;
        holds "parallel_identical" (pts_red = pts_par);
        (if small then gt "speedup" speedup 1.0 else ge "speedup" speedup 5.0) ];
  }

(* ------------------------------------------------------------------ *)
(* Part 10: numerical pre-flight overhead

   The verify gate is static analysis only — analyzer rules,
   conditioning span, stiffness spectrum, pool passivity.  Its promise
   is to be nearly free next to the cold work it fronts: this part
   times [Flow.preflight] against the cold path a request pays and
   gates the total at 5%, and every deck must verify clean.

   The decks are the shipped examples plus the deck `snoise verify`
   defaults to: the merged VCO impact model (substrate + interconnect
   + linearized oscillator core), checked with the default analyzer
   configuration exactly as `snoise verify` checks it.  Each deck's
   cold path is what a cold request pays before a solve can be
   scheduled: for the example files, parse from disk plus stamp-plan
   compile, DC bias and the complex AC plan; for the merged VCO model,
   substrate + interconnect extraction (uncached — [build_vco] takes
   no tile cache) and the merge, then the same compile chain. *)

let part10 ~small =
  let reps_pre = if small then 9 else 25 in
  let compile_chain nl =
    let cdeck = Flow.compile_deck ~lint:false nl in
    ignore (Flow.compiled_bias cdeck);
    ignore (Flow.compiled_ac_plan cdeck)
  in
  let build_merged_vco () =
    Flow.vco_merged (Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.45)
  in
  let decks =
    List.filter_map
      (fun path ->
        if Sys.file_exists path then
          Some
            ( Filename.remove_extension (Filename.basename path),
              Sn_circuit.Spice.load path,
              reps_pre,
              fun () -> compile_chain (Sn_circuit.Spice.load path) )
        else None)
      [ "examples/decks/clean_rc.sp"; "examples/decks/probe_divider.sp" ]
    @ [ ( "vco_merged",
          build_merged_vco (),
          (if small then 1 else 3),
          fun () -> compile_chain (build_merged_vco ()) ) ]
  in
  if List.length decks < 3 then
    failwith "bench part10: shipped example decks not found (run from repo root)";
  let rows =
    List.map
      (fun (name, nl, reps_cold, cold) ->
        let clean = not (Flow.preflight_failing (Flow.preflight nl)) in
        let t_pre = min_of ~reps:reps_pre (fun () -> Flow.preflight nl) in
        let t_cold = min_of ~reps:reps_cold cold in
        (name, clean, t_pre *. 1.0e3, t_cold *. 1.0e3))
      decks
  in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rows in
  let total_pre = sum (fun (_, _, p, _) -> p)
  and total_cold = sum (fun (_, _, _, c) -> c) in
  let ratio = total_pre /. total_cold in
  let key name field = Printf.sprintf "deck.%s.%s" name field in
  {
    metrics =
      count "reps" reps_pre
      :: List.concat_map
           (fun (name, _, p, c) ->
             [ (key name "preflight_ms", p, "ms");
               (key name "cold_compile_ms", c, "ms") ])
           rows
      @ [ ("preflight_ms", total_pre, "ms");
          ("cold_compile_ms", total_cold, "ms");
          ("overhead_ratio", ratio, "ratio") ];
    gates =
      List.concat_map
        (fun (name, clean, p, c) ->
          [ holds (key name "verifies") clean;
            gt (key name "preflight_ms") p 0.0;
            gt (key name "cold_compile_ms") c 0.0 ])
        rows
      @ [ gt "preflight_ms" total_pre 0.0;
          gt "cold_compile_ms" total_cold 0.0;
          le "overhead_ratio" ratio 0.05 ];
  }

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel microbenchmarks, one per table / figure *)

open Bechamel
open Toolkit

let bench_tests () =
  (* shared fixtures built once *)
  let nmos_flow = Flow.build_nmos Sn_testchip.Nmos_structure.default in
  let vco_flow = Flow.build_vco Sn_testchip.Vco_chip.default ~vtune:0.0 in
  let f_noise = E.default_f_noise in
  let h = Flow.vco_transfers vco_flow ~f_noise in
  let osc = Flow.vco_oscillator vco_flow in
  let small_grid =
    { Sn_substrate.Grid.nx = 24; ny = 24; z_per_layer = Some [ 1; 2; 2; 1 ] }
  in
  let layout = Sn_testchip.Nmos_structure.layout Sn_testchip.Nmos_structure.default in
  let merged = Flow.vco_merged vco_flow in
  let vco_dc = Eng.Dc.solve merged in
  (* the transient hot path: a linear RC ladder, sized past the
     assembler's dense/sparse crossover so the CSR refill +
     pattern-reusing LU is what gets measured *)
  let tran_ladder =
    let node k = if k = 0 then "0" else Printf.sprintf "n%d" k in
    Sn_circuit.Netlist.create ~title:"bench RC ladder"
      (El.Vsource
         { name = "vin"; np = "drive"; nn = "0";
           wave = Sn_circuit.Waveform.sin_wave ~amplitude:1.0 ~freq:10.0e6 ();
           ac_mag = 1.0 }
      :: El.Resistor { name = "rin"; n1 = "drive"; n2 = node 1; ohms = 50.0 }
      :: List.concat
           (List.init 80 (fun k ->
                let k = k + 1 in
                [ El.Resistor
                    { name = Printf.sprintf "r%d" k; n1 = node k;
                      n2 = node (k + 1); ohms = 100.0 +. float_of_int k };
                  El.Capacitor
                    { name = Printf.sprintf "c%d" k; n1 = node k; n2 = "0";
                      farads = 1.0e-12 } ])))
  in
  (* direct elimination: a 48x48 surface mesh with four port regions —
     the network is rebuilt per run because elimination consumes it *)
  let elim_n = 48 in
  let elim_edges, elim_ports =
    let n = elim_n in
    let idx x y = (y * n) + x in
    let edges = ref [] in
    for y = 0 to n - 1 do
      for x = 0 to n - 1 do
        if x + 1 < n then
          edges :=
            (idx x y, idx (x + 1) y, 1.0e-3 *. (1.0 +. (0.1 *. float_of_int y)))
            :: !edges;
        if y + 1 < n then
          edges :=
            (idx x y, idx x (y + 1), 1.3e-3 *. (1.0 +. (0.05 *. float_of_int x)))
            :: !edges
      done
    done;
    (!edges, [| idx 3 3; idx (n - 4) 3; idx 3 (n - 4); idx (n - 4) (n - 4) |])
  in
  [
    Test.make ~name:"fig3_nmos_transfer"
      (Staged.stage (fun () ->
           ignore (Flow.nmos_transfer nmos_flow ~vgs:0.8 ~vds:0.8 ~freq:5.0e6)));
    Test.make ~name:"sec3_division_crossover"
      (Staged.stage (fun () -> ignore (Flow.nmos_divider nmos_flow)));
    Test.make ~name:"fig7_output_spectrum"
      (Staged.stage (fun () ->
           let beta, m_am =
             Sn_rf.Impact.total_modulation osc ~h:(h 10.0e6) ~a_noise:0.178
               ~f_noise:10.0e6
           in
           let samples =
             Sn_rf.Behavioral.synthesize ~carrier_freq:64.0e6
               ~amplitude:osc.Sn_rf.Impact.amplitude
               ~tones:[ { Sn_rf.Behavioral.f_noise = 10.0e6; beta; m_am } ]
               ~fs:320.0e6 ~n:16384
           in
           ignore
             (Sn_rf.Behavioral.measured_sideband_dbm samples ~fs:320.0e6
                ~carrier_freq:64.0e6 ~f_noise:10.0e6 `Upper)));
    Test.make ~name:"fig8_spur_vs_fnoise"
      (Staged.stage (fun () ->
           Array.iter
             (fun fn ->
               ignore
                 (Flow.vco_spur vco_flow ~h ~p_noise_dbm:(-5.0) ~f_noise:fn))
             f_noise));
    Test.make ~name:"fig9_contributions"
      (Staged.stage (fun () ->
           ignore (Flow.vco_spur vco_flow ~h ~p_noise_dbm:(-5.0) ~f_noise:10.0e6)));
    Test.make ~name:"fig10_ground_sizing"
      (Staged.stage (fun () ->
           ignore (Flow.vco_ground_wire_resistance vco_flow)));
    Test.make ~name:"vco_design_card"
      (Staged.stage (fun () ->
           let tank = Sn_rf.Tank.default_3ghz in
           let bias = Sn_rf.Tank.quiet_bias ~v_tune:0.45 in
           List.iter
             (fun e -> ignore (Sn_rf.Tank.sensitivity tank bias e))
             Sn_rf.Tank.
               [ Ground; Backgate; Pmos_well; Varactor_well; Inductor_node ]));
    Test.make ~name:"runtime_extraction_small_grid"
      (Staged.stage (fun () ->
           ignore
             (Sn_substrate.Extractor.extract_from_layout ~config:small_grid
                ~tech:Sn_tech.Tech.imec018 layout)));
    Test.make ~name:"runtime_simulation_ac_solve"
      (Staged.stage (fun () ->
           ignore (Eng.Ac.solve ~dc:vco_dc merged ~freq:10.0e6)));
    (let options =
       { Eng.Tran.default_options with
         Eng.Tran.ic = Eng.Tran.Uic [];
         record = Some [ "n80" ] }
     in
     Test.make ~name:"tran_fixed_step"
       (Staged.stage (fun () ->
            ignore
              (Eng.Tran.simulate ~options ~tstop:2.0e-6 ~dt:1.0e-8 tran_ladder))));
    Test.make ~name:"substrate_elimination"
      (Staged.stage (fun () ->
           let module Elim = Sn_substrate.Elimination in
           let net =
             Elim.of_conductances ~n:(elim_n * elim_n) ~ports:elim_ports
               elim_edges
           in
           Elim.eliminate_internal net;
           ignore (Elim.port_conductance net)));
  ]

let part2 ~small:_ =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"snoise" ~fmt:"%s.%s" (bench_tests ()) in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let prefix = "snoise." in
  let strip name =
    let lp = String.length prefix in
    if String.starts_with ~prefix name then
      String.sub name lp (String.length name - lp)
    else name
  in
  {
    metrics =
      Hashtbl.fold
        (fun name result acc ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> (strip name ^ ".ns_per_run", est, "ns") :: acc
          | _ -> acc)
        results []
      |> List.sort compare;
    gates = [];
  }

(* ------------------------------------------------------------------ *)
(* the part table and the driver *)

let parts =
  [
    ("part1", "paper evaluation reproduced, with ablations", part1);
    ("part2", "Bechamel microbenchmarks, one per table / figure", part2);
    ("part3", "domain-parallel sweep scaling", part3);
    ("part4", "robustness-layer overhead on the healthy path", part4);
    ("part5", "sparse frequency-domain engine (AC sweep + adjoint noise)", part5);
    ("part6", "substrate extraction at scale (MG-CG, cache)", part6);
    ("part7", "resident service: cold vs warm requests/s", part7);
    ("part8", "cooperative cancellation: check overhead on the AC hot path", part8);
    ("part9", "PRIMA reduction: exact vs rank-k AC sweep", part9);
    ("part10", "pre-flight overhead: static verify vs cold compile", part10);
  ]

let gate_json (name, c) =
  let value, bound, op =
    match c with
    | Holds b -> (J.Bool b, J.Bool true, "holds")
    | Cmp (v, o, b) -> (J.Num v, J.Num b, op_string o)
  in
  J.Obj
    [ ("name", J.Str name); ("value", value); ("bound", bound);
      ("op", J.Str op); ("pass", J.Bool (passes c)) ]

(* print the metrics table and one verdict line per gate, write
   bench-<part>.json; true when every gate passed *)
let report ~part ~title ~small r =
  Format.fprintf fmt "@.%-44s %14s  %s@." "metric" "value" "unit";
  List.iter
    (fun (name, v, unit) -> Format.fprintf fmt "%-44s %14.6g  %s@." name v unit)
    r.metrics;
  List.iter
    (fun (name, c) ->
      let verdict = if passes c then "PASS" else "FAIL" in
      match c with
      | Holds b -> Format.fprintf fmt "%s %s: holds = %b@." verdict name b
      | Cmp (v, o, b) ->
        Format.fprintf fmt "%s %s: %.6g %s %g@." verdict name v (op_string o) b)
    r.gates;
  let path = Printf.sprintf "bench-%s.json" part in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("part", J.Str part);
            ("title", J.Str title);
            ("small_mode", J.Bool small);
            ( "host",
              J.Obj
                [
                  ("cpus", J.Num (float_of_int (Domain.recommended_domain_count ())));
                  ("ocaml", J.Str Sys.ocaml_version);
                ] );
            ( "metrics",
              J.Arr
                (List.map
                   (fun (name, v, unit) ->
                     J.Obj
                       [ ("name", J.Str name); ("value", J.Num v);
                         ("unit", J.Str unit) ])
                   r.metrics) );
            ("gates", J.Arr (List.map gate_json r.gates));
          ]));
  output_char oc '\n';
  close_out oc;
  Format.fprintf fmt "wrote %s@." path;
  Format.pp_print_flush fmt ();
  List.for_all (fun (_, c) -> passes c) r.gates

(* "bench partN [small]" runs the named part; with no part named the
   whole table runs in order *)
let () =
  let small = Array.mem "small" Sys.argv in
  let selected =
    match List.filter (fun (name, _, _) -> Array.mem name Sys.argv) parts with
    | [] -> parts
    | named -> named
  in
  let ok =
    List.fold_left
      (fun ok (part, title, run) ->
        Format.fprintf fmt "@.%s@.%s - %s@.%s@." (String.make 72 '=') part title
          (String.make 72 '=');
        let passed = report ~part ~title ~small (run ~small) in
        passed && ok)
      true selected
  in
  Format.fprintf fmt "@.bench: %s@."
    (if ok then "done" else "FAILED (see the FAIL verdicts above)");
  Format.pp_print_flush fmt ();
  exit (if ok then 0 else 1)
