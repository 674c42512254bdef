(* The stage probe of a traced run: each Fig. 2 layer called once on
   the VCO test chip, in [Flow.build_vco] order, first against an empty
   tile cache and then against the filled one, each under its own span
   so the report can give every layer's self time.  After it, the
   figure set and a block of service traffic run once, so a workload
   that does not drive those layers itself still reports them. *)

open Common
module Flow = Snoise.Flow
module Vco = Sn_testchip.Vco_chip

(* The probe's layer spans, in call order; each gives the metrics
   [<span>_s] (cold pass) and [<span>_warm_s]. *)
let layers =
  [ "testchip.layout"; "layout.drc"; "interconnect.extract"; "substrate.extract";
    "core.merge"; "analysis.lint"; "analysis.preflight"; "engine.compile";
    "engine.dc"; "engine.ac_sweep"; "rf.spur" ]

let stage () =
  let tech = Flow.default_options.Flow.tech in
  let sp = Trace.span in
  let layout = sp "testchip.layout" (fun () -> Vco.layout Vco.default) in
  let violations = sp "layout.drc" (fun () -> Sn_layout.Drc.check ~tech layout) in
  check (violations = []) "probe: the VCO layout has %d DRC violations"
    (List.length violations);
  let itc =
    sp "interconnect.extract" (fun () ->
        Sn_interconnect.Extract.extract
          ~options:
            { Sn_interconnect.Extract.default_options with
              Sn_interconnect.Extract.substrate_node = "backgate:sub_ind" }
          ~tech layout)
  in
  let macro =
    sp "substrate.extract" (fun () ->
        Sn_substrate.Extractor.extract_from_layout
          ~config:Flow.default_options.Flow.grid ~tech layout)
  in
  let xstats = Sn_substrate.Extractor.last_stats () in
  let merged_elements =
    sp "core.merge" (fun () ->
        Snoise.Merge.of_macromodel macro
        @ Snoise.Merge.of_rc_netlist itc.Sn_interconnect.Extract.netlist)
  in
  check (merged_elements <> []) "probe: merge produced no elements";
  (* the simulated deck is the flow's own merged model, so the engine
     layers see exactly what the figures simulate *)
  let flow =
    sp "core.build_vco" (fun () -> Flow.build_vco Vco.default ~vtune:0.0)
  in
  let nl = Flow.vco_merged flow in
  sp "analysis.lint" (fun () -> Flow.lint_gate nl);
  ignore (sp "analysis.preflight" (fun () -> Flow.preflight nl));
  let compiled = sp "engine.compile" (fun () -> Flow.compile_deck ~lint:false nl) in
  let dc = sp "engine.dc" (fun () -> Flow.compiled_bias compiled) in
  let nodes = List.sort_uniq String.compare (List.map snd Vco.sensitive_nodes) in
  let points =
    sp "engine.ac_sweep" (fun () ->
        Sn_engine.Ac.sweep ~dc nl ~freqs:Snoise.Experiments.default_f_noise ~nodes)
  in
  check
    (Array.length points = Array.length Snoise.Experiments.default_f_noise)
    "probe: AC sweep lost points";
  let spur =
    sp "rf.spur" (fun () ->
        let h = Flow.vco_transfers flow ~f_noise:[| 10.0e6 |] in
        Flow.vco_spur flow ~h ~p_noise_dbm:Snoise.Experiments.paper_noise_dbm
          ~f_noise:10.0e6)
  in
  check (Float.is_finite spur.Sn_rf.Impact.upper_dbm) "probe: spur is not finite";
  xstats

(* Returns the extractor statistics of the cold pass and the server
   layer record of the service block. *)
let run (s : settings) =
  let dir = fresh_dir s.work ("probe-tiles-" ^ s.workload) in
  Sn_substrate.Cache.set_default_dir (Some dir);
  Snoise.Sweep.set_jobs s.jobs;
  Trace.span "probe" (fun () ->
      let xstats =
        Trace.span "probe.cold" (fun () ->
            Option.join (attempt "stage probe (cold)" stage))
      in
      ignore
        (Trace.span "probe.warm" (fun () -> attempt "stage probe (warm)" stage));
      Trace.span "probe.figures" (fun () ->
          List.iter (fun op -> ignore (Paper.call op)) Paper.default_set);
      let rng = Random.State.make [| s.seed |] in
      let layer =
        Trace.span "probe.serve" (fun () ->
            let w, svc, _ = Serve.setup s rng ~tiles:dir in
            let _, _, _, _, _, layer = Serve.session ~seconds:0.0 w svc rng in
            layer)
      in
      (xstats, layer))
