(* The paper's own traffic: the [snoise all] figure set, cold, and a
   seeded design-iteration loop of single figure calls against a warm
   tile cache. *)

open Common
module E = Snoise.Experiments
module R = Snoise.Report

type op =
  | Fig3
  | Sec3
  | Fig7 of float option  (** [None]: the paper's 10 MHz default *)
  | Fig8 of float option  (** [None]: the default three-vtune family set *)
  | Fig9
  | Fig10
  | Card
  | Aggressor
  | Runtime

(* The span name of each call; the per-layer metric is [<name>_s]. *)
let name = function
  | Fig3 -> "core.fig3"
  | Sec3 -> "core.sec3"
  | Fig7 _ -> "core.fig7"
  | Fig8 _ -> "core.fig8"
  | Fig9 -> "core.fig9"
  | Fig10 -> "core.fig10"
  | Card -> "core.vco_card"
  | Aggressor -> "core.aggressor"
  | Runtime -> "core.runtime"

(* [snoise all] order, with the aggressor comb the CLI runs on its own. *)
let default_set =
  [ Fig3; Sec3; Fig7 None; Fig8 None; Fig9; Fig10; Card; Aggressor; Runtime ]

let span_names = List.map name default_set

let render pp v = Format.asprintf "%a" pp v

let in_band what lo hi v =
  check (v >= lo && v <= hi) "%s = %g outside [%g, %g]" what v lo hi

(* The EXPERIMENTS.md acceptance bands on the returned scalars. *)
let check_fig8 (f : E.fig8_family) =
  in_band (Printf.sprintf "fig8 slope @ vtune %.2f" f.E.vtune) (-22.0) (-17.0)
    f.E.slope_db_per_decade;
  in_band (Printf.sprintf "fig8 model-vs-DFT @ vtune %.2f" f.E.vtune) 0.0 2.0
    f.E.max_model_vs_behavioral_db

(* Run one call and return the texts the CLI would print for it, each
   under the key a later call with the same arguments must reproduce.
   A fig8 family set yields one text per family, so a single-vtune
   call can be held to its slice of the default set.  The runtime
   report carries wall times, so it has no fixed text. *)
let run op =
  let fig8_texts fams =
    List.map
      (fun (f : E.fig8_family) ->
        (Printf.sprintf "core.fig8@%g" f.E.vtune, render R.fig8 [ f ]))
      fams
  in
  match op with
  | Fig3 ->
    let r = E.fig3 () in
    in_band "fig3 division ratio" 400.0 1200.0 (1.0 /. r.E.divider);
    in_band "fig3 hand error [dB]" 0.0 1.0 r.E.max_hand_error_db;
    [ (name op, render R.fig3 r) ]
  | Sec3 -> [ (name op, render R.sec3 (E.sec3_numbers ())) ]
  | Fig7 None -> [ (name op, render R.fig7 (E.fig7 ())) ]
  | Fig7 (Some f_noise) ->
    ignore (render R.fig7 (E.fig7 ~f_noise ()));
    []
  | Fig8 vtune ->
    let vtunes = Option.map (fun v -> [ v ]) vtune in
    let fams = E.fig8 ?vtunes () in
    List.iter check_fig8 fams;
    fig8_texts fams
  | Fig9 ->
    let r = E.fig9 () in
    in_band "fig9 ground-backgate gap [dB]" 12.0 28.0 r.E.ground_minus_backgate_db;
    [ (name op, render R.fig9 r) ]
  | Fig10 ->
    let r = E.fig10 () in
    in_band "fig10 improvement [dB]" 3.0 6.0 r.E.mean_improvement_db;
    [ (name op, render R.fig10 r) ]
  | Card -> [ (name op, render R.vco_card (E.vco_card ())) ]
  | Aggressor -> [ (name op, render R.aggressor (E.aggressor_comb ())) ]
  | Runtime ->
    let r = E.runtime () in
    check (r.E.grid_cells > 0) "runtime reported no grid cells";
    ignore (render R.runtime r);
    []

(* One call under its span and the pool counters.  Returns its
   latency in ms and its keyed texts. *)
let call op =
  let texts, dt =
    time (fun () ->
        Counters.pool (fun () ->
            Trace.span (name op) (fun () ->
                Option.value ~default:[] (attempt (name op) (fun () -> run op)))))
  in
  (dt *. 1000.0, texts)

(* ------------------------------------------------------------------ *)
(* paper_cold *)

(* Set-up is choosing no tile cache and starting the worker pool; it
   is repeated so its median is steady. *)
let cold_setup (s : settings) =
  Sn_substrate.Cache.set_default_dir None;
  Snoise.Sweep.set_jobs 1;
  Snoise.Sweep.set_jobs s.jobs;
  check (Snoise.Sweep.jobs () = s.jobs) "pool width %d, wanted %d"
    (Snoise.Sweep.jobs ()) s.jobs;
  check ((Sn_substrate.Cache.resolution ()).Sn_substrate.Cache.dir = None)
    "paper_cold found a tile cache"

(* The cold pass is the workload's whole fixed work: a second pass in
   the same process would no longer be cold, so [--seconds] does not
   repeat it. *)
let cold (s : settings) =
  let setups = List.init 7 (fun _ -> snd (time (fun () -> cold_setup s))) in
  Counters.mark_setup ();
  let c0 = cpu_now () in
  let lat, wall =
    time (fun () ->
        Trace.span "timed" (fun () ->
            List.map (fun op -> fst (call op)) default_set))
  in
  let cpu = cpu_now () -. c0 in
  Counters.mark_timed ();
  {
    setup_s = median setups;
    walls = [ wall ];
    elapsed = wall;
    cpu;
    lat_ms = lat;
    tile_cache = "none: every extraction runs cold";
  }

(* ------------------------------------------------------------------ *)
(* paper_warm *)

(* One design-iteration pass: a fixed multiset of calls in seeded
   order with seeded parameters, so every pass does the same amount of
   work whatever the seed. *)
let warm_pass rng =
  let f () = Some (log_uniform rng 1.0e6 15.0e6) in
  let vt () = Some [| 0.0; 0.45; 0.9 |].(Random.State.int rng 3) in
  shuffle rng
    [ Fig7 (f ()); Fig7 (f ()); Fig7 (f ()); Fig7 None; Fig8 (vt ());
      Fig8 (vt ()); Fig9; Fig10; Card; Fig3 ]

(* Set-up runs the default figure set once against an empty tile
   cache: it fills the cache and records the reference texts every
   later call with the same arguments must reproduce byte for byte. *)
let warm (s : settings) =
  let rng = Random.State.make [| s.seed |] in
  let reference = Hashtbl.create 16 in
  let (), setup_s =
    time (fun () ->
        Trace.span "setup" (fun () ->
            let dir = fresh_dir s.work ("tiles-" ^ s.workload) in
            Sn_substrate.Cache.set_default_dir (Some dir);
            Snoise.Sweep.set_jobs s.jobs;
            List.iter
              (fun op ->
                List.iter
                  (fun (k, text) -> Hashtbl.replace reference k text)
                  (snd (call op)))
              default_set))
  in
  Counters.mark_setup ();
  let lat = ref [] in
  let walls, elapsed, cpu =
    Trace.span "timed" (fun () ->
        passes ~seconds:s.seconds (fun () ->
            List.iter
              (fun op ->
                let ms, texts = call op in
                lat := ms :: !lat;
                List.iter
                  (fun (k, got) ->
                    match Hashtbl.find_opt reference k with
                    | Some want ->
                      check (String.equal want got)
                        "%s differs from the set-up pass's text" k
                    | None -> fail "%s has no set-up reference" k)
                  texts)
              (warm_pass rng)))
  in
  Counters.mark_timed ();
  {
    setup_s;
    walls;
    elapsed;
    cpu;
    lat_ms = List.rev !lat;
    tile_cache = "fresh directory, filled by the set-up pass";
  }
