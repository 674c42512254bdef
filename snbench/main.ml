(* snbench: the repository's benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--nproc N] [--commit REV] [--started T]

   Runs one workload in this fresh process and prints its metrics,
   one per line with its unit, then, as the last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the gated end-to-end ones, measured with tracing off;
   with --trace 1 the same workload runs with spans and counters
   armed, followed by the stage probe, and the metrics are the
   per-layer ones.  run.sh builds and starts it; README.md explains
   each workload and metric. *)

open Common
module J = Sn_server.Json

let workloads = [ "paper_cold"; "paper_warm"; "serve_mixed" ]
let work_dir = ".snbench"

(* Digest of the library, CLI and bench sources: identifies the code
   measured when the checkout carries no commit id. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if List.exists (Filename.check_suffix p) [ ".ml"; ".mli" ]
           then [ p ]
           else [])
  in
  List.concat_map (fun d -> if Sys.file_exists d then files d else [])
    [ "lib"; "bin"; "snbench" ]
  |> List.map (fun p -> p ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let metric name value unit = (name, value, unit)

(* End-to-end metrics, measured with tracing off: the gated ones, then
   the latency tails, which are printed but not gated because co-tenant
   load on a shared host swings them far beyond any allowed bound. *)
let end_to_end m =
  let n = List.length m.lat_ms in
  let lat p = (Printf.sprintf "lat_p%g_ms" p, percentile p m.lat_ms, "ms") in
  ( [
      metric "setup_s" m.setup_s "s";
      metric "wall_s" (median m.walls) "s";
      metric "cpu_s" (m.cpu /. float_of_int (List.length m.walls)) "s";
      metric "peak_rss_mb" (peak_rss_mb ()) "MB";
      metric "ops_per_s" (float_of_int n /. m.elapsed) "1/s";
      lat 50.0;
    ],
    [ lat 95.0; lat 99.0 ] )

(* Per-layer metrics of a traced run.  The stage probe gives every
   Fig. 2 layer's self time, cold and warm.  The figure-call and server
   figures come from the workload when it drives those layers, else
   from the probe's figure pass and service block.  Pool, LU and
   tile-cache counts come from the workload's own phases. *)
let per_layer (xstats : Sn_substrate.Extractor.stats option)
    (sv : Serve.layer) =
  let children = Trace.children_time () in
  let self_under anc name =
    List.fold_left (fun acc sp -> acc +. Trace.self_time children sp) 0.0
      (Trace.within anc name)
  in
  let stage =
    List.concat_map
      (fun l ->
        [ metric (l ^ "_s") (self_under "probe.cold" l) "s";
          metric (l ^ "_warm_s") (self_under "probe.warm" l) "s" ])
      Probe.layers
  in
  let x f = match xstats with Some st -> f st | None -> 0.0 in
  let module X = Sn_substrate.Extractor in
  let substrate =
    [ metric "substrate.assemble_s" (x (fun st -> st.X.assemble_seconds)) "s";
      metric "substrate.reduce_s" (x (fun st -> st.X.reduce_seconds)) "s";
      metric "substrate.stitch_s" (x (fun st -> st.X.stitch_seconds)) "s";
      metric "substrate.cg_iterations"
        (x (fun st -> float_of_int st.X.cg_iterations_total)) "count";
      metric "substrate.mg_levels"
        (x (fun st -> float_of_int st.X.mg_levels)) "count";
      metric "substrate.cells"
        (x (fun st -> float_of_int st.X.grid_cells)) "count" ]
  in
  let c0 = !Counters.at_start and c1 = !Counters.after_setup
  and c2 = !Counters.after_timed in
  let module C = Sn_substrate.Cache in
  let d f a b = float_of_int (f b.Counters.cache - f a.Counters.cache) in
  let lookups c = c.C.lookups and hits c = c.C.hits and stores c = c.C.stores in
  let cache =
    [ metric "substrate.cache_lookups" (d lookups c0 c2) "count";
      metric "substrate.cache_hits" (d hits c0 c2) "count";
      metric "substrate.cache_stores" (d stores c0 c2) "count";
      metric "substrate.lookups_per_store"
        (d lookups c0 c1 /. Float.max 1.0 (d stores c0 c1)) "ratio" ]
  in
  let figures =
    List.map
      (fun name ->
        let own = Trace.within "setup" name @ Trace.within "timed" name in
        let spans = if own <> [] then own else Trace.within "probe" name in
        let d = List.map Trace.duration spans in
        metric (name ^ "_s") (if d = [] then 0.0 else median d) "s")
      Paper.span_names
  in
  let busy = c2.Counters.busy_s -. c1.Counters.busy_s in
  let pool_wall = c2.Counters.wall_s -. c1.Counters.wall_s in
  let lu f = float_of_int (f c2 - f c1) in
  let engine =
    [ metric "engine.pool_tasks"
        (float_of_int (c2.Counters.tasks - c1.Counters.tasks)) "count";
      metric "engine.pool_busy_s" busy "s";
      metric "engine.pool_parallelism"
        (if pool_wall > 0.0 then busy /. pool_wall else 0.0) "ratio";
      metric "numerics.lu_factorizations"
        (lu (fun c -> c.Counters.factorizations)) "count";
      metric "numerics.lu_refactorizations"
        (lu (fun c -> c.Counters.refactorizations)) "count";
      metric "numerics.lu_solves" (lu (fun c -> c.Counters.solves)) "count" ]
  in
  let ratio h n = if n > 0 then float_of_int h /. float_of_int n else 0.0 in
  let server =
    [ metric "server.parse_ms" (mean sv.Serve.parse_ms) "ms";
      metric "server.submit_ms" (mean sv.Serve.submit_ms) "ms";
      metric "server.drain_ms" (mean sv.Serve.drain_ms) "ms";
      metric "server.queue_wait_ms" (mean sv.Serve.queue_wait_ms) "ms";
      metric "server.batch_size_mean" (mean sv.Serve.batched) "requests";
      metric "server.plan_hit_ratio" sv.Serve.plan_hit_ratio "ratio";
      metric "server.bias_hit_ratio"
        (ratio sv.Serve.bias_hits sv.Serve.bias_lookups) "ratio";
      metric "server.flow_hit_ratio" sv.Serve.flow_hit_ratio "ratio" ]
  in
  stage @ substrate @ cache @ figures @ engine @ server

(* Untraced runs of the same sources record their wall_s here, so a
   traced run can report its tracing overhead against them. *)
let history (s : settings) digest =
  Filename.concat s.work
    (Printf.sprintf "untraced-%s-%s.txt" s.workload digest)

let read_history s digest =
  match open_in (history s digest) with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | line ->
        go (match float_of_string_opt line with Some v -> v :: acc | None -> acc)
      | exception End_of_file -> acc
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let append_history s digest wall =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (history s digest) in
  Printf.fprintf oc "%.17g\n" wall;
  close_out oc

let print_metric ~n ?note (name, value, unit) =
  let notes =
    let percentile_of name =
      let k = String.length name in
      if k > 8 && String.starts_with ~prefix:"lat_p" name
         && String.ends_with ~suffix:"_ms" name
      then float_of_string_opt (String.sub name 5 (k - 8))
      else None
    in
    (match percentile_of name with
    | Some p when supported p n -> [ Printf.sprintf "n=%d" n ]
    | Some _ ->
      [ Printf.sprintf "n=%d: fewer than 10 samples beyond this percentile" n ]
    | None -> [])
    @ Option.to_list note
  in
  Printf.printf "metric %-34s %14.6g %s%s\n" name value unit
    (if notes = [] then "" else "  (" ^ String.concat "; " notes ^ ")")

let result_json metrics =
  let num v = J.Num (float_of_int v) in
  J.Obj
    [ ("correct", J.Bool (!failed = 0));
      ("attempted", num (max 1 !attempted));
      ("failed", num !failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (n, v, u) ->
               (n, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ]))
             metrics) ) ]

let () =
  let entered = now () and steal0 = steal_s () in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and nproc = ref (Domain.recommended_domain_count ())
  and commit = ref "unknown" and started = ref nan in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME one of " ^ String.concat ", " workloads );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 arm spans and counters, then run the stage probe" );
      ("--nproc", Arg.Set_int nproc, "N host CPU count: the pool width");
      ("--commit", Arg.Set_string commit, "REV commit of the checkout, if known");
      ( "--started",
        Arg.Set_float started,
        "T Unix time the process was launched; set-up counts from it" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if (not (List.mem !workload workloads)) || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline
      ("snbench: --workload must be one of " ^ String.concat ", " workloads
     ^ ", and --trace 0 or 1");
    exit 2
  end;
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let s =
    { workload = !workload; seed = !seed; seconds = !seconds;
      trace = !trace = 1; jobs = Sn_engine.Pool.clamp_jobs !nproc;
      work = work_dir }
  in
  Trace.armed := s.trace;
  Counters.mark_start ();
  Printf.printf "snbench %s seed=%d seconds=%g trace=%d\n%!" s.workload s.seed
    s.seconds !trace;
  let m, serve_layer =
    match s.workload with
    | "paper_cold" -> (Paper.cold s, None)
    | "paper_warm" -> (Paper.warm s, None)
    | _ ->
      let o = Serve.run s in
      Printf.printf "re-served %d sampled requests alone at jobs 1\n"
        o.Serve.reserved;
      (o.Serve.m, Some o.Serve.layer)
  in
  (* process launch and library start-up are part of set-up *)
  let launch_s =
    if Float.is_nan !started then 0.0 else Float.max 0.0 (entered -. !started)
  in
  let m = { m with setup_s = launch_s +. m.setup_s } in
  let gated, tails = end_to_end m in
  let wall = median m.walls in
  let num v = J.Num (float_of_int v) in
  let digest = source_digest () in
  let config =
    J.Obj
      [ ("workload", J.Str s.workload); ("seed", num s.seed);
        ("seconds", J.Num s.seconds); ("trace", J.Bool s.trace);
        ("nproc", num !nproc); ("jobs", num s.jobs);
        ("ocaml", J.Str Sys.ocaml_version); ("commit", J.Str !commit);
        ("source_digest", J.Str digest);
        ("tile_cache", J.Str m.tile_cache);
        ("host_steal_s", J.Num (Float.round ((steal_s () -. steal0) *. 100.0) /. 100.0));
        ("passes", num (List.length m.walls));
        ("operations", num (List.length m.lat_ms)) ]
  in
  Printf.printf "config %s\n" (J.to_string config);
  let metrics =
    if not s.trace then begin
      append_history s digest wall;
      gated
    end
    else begin
      let xstats, probe_serve = Probe.run s in
      let layer =
        per_layer xstats (Option.value serve_layer ~default:probe_serve)
      in
      let path =
        Filename.concat s.work
          (Printf.sprintf "trace-%s-seed%d.json" s.workload s.seed)
      in
      Trace.write_chrome path ~meta:[ ("config", config) ]
        ~counters:(List.map (fun (n, v, _) -> (n, J.Num v)) layer);
      Printf.printf "trace %s\n" path;
      (match read_history s digest with
      | [] ->
        Printf.printf
          "trace-overhead unknown: no untraced %s run recorded in %s yet\n"
          s.workload s.work
      | untraced ->
        let base = median untraced in
        Printf.printf
          "trace-overhead wall_s traced %.6g s - untraced median %.6g s (%d \
           runs) = %+.6g s\n"
          wall base (List.length untraced) (wall -. base));
      layer
    end
  in
  List.iter (print_metric ~n:(List.length m.lat_ms)) metrics;
  if not s.trace then
    List.iter (print_metric ~n:(List.length m.lat_ms) ~note:"not gated") tails;
  Printf.printf "metric %-34s %14.6g ratio  (%d failed of %d attempted)\n"
    "failed_share"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    !failed !attempted;
  List.iter
    (fun d -> remove_tree (Filename.concat s.work d))
    [ "tiles-" ^ s.workload; "probe-tiles-" ^ s.workload ];
  print_endline (J.to_string (result_json metrics))
