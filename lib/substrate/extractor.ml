module G = Sn_geometry
module N = Sn_numerics
module T = Sn_tech.Tech
module Pool = Sn_engine.Pool

let log_src = Logs.Src.create "sn.substrate" ~doc:"substrate extraction"

module Log = (val Logs.src_log log_src : Logs.LOG)

type stats = {
  grid_cells : int;
  ports : int;
  cg_iterations_total : int;
  mg_levels : int;
  assemble_seconds : float;
  reduce_seconds : float;
  stitch_seconds : float;
  cache_hits : int;
  cache_misses : int;
  elapsed_seconds : float;
}

(* atomic: concurrent extractions on pool workers (Sn_engine.Pool)
   must not tear the record; last writer wins *)
let stats_ref : stats option Atomic.t = Atomic.make None
let last_stats () = Atomic.get stats_ref

(* Overlap area (um^2) of a port with one surface cell. *)
let overlap_area (port : Port.t) cell_rect =
  List.fold_left
    (fun acc r ->
      match G.Rect.intersection r cell_rect with
      | Some o -> acc +. G.Rect.area o
      | None -> acc)
    0.0 port.Port.region

let well_capacitance (profile : T.substrate_profile) (port : Port.t) =
  let um2 = T.micron *. T.micron in
  List.fold_left
    (fun acc r ->
      acc
      +. (G.Rect.area r *. um2 *. profile.T.nwell_cap_area)
      +. (G.Rect.perimeter r *. T.micron *. profile.T.nwell_cap_perimeter))
    0.0 port.Port.region

(* ------------------------------------------------------------------ *)
(* unboxed growable branch buffer holding every conductance branch of
   the die: grid cells are numbered 0 .. n-1 ({!Grid.cell_index}
   order), ports n .. n+np-1.  The buffer is both the assembly input of
   the reduction and the content the cache key digests. *)

type branchbuf = {
  mutable bi : int array;
  mutable bj : int array;
  mutable bg : float array;
  mutable blen : int;
}

let bb_create () =
  { bi = Array.make 64 0; bj = Array.make 64 0; bg = Array.make 64 0.0;
    blen = 0 }

let bb_push b i j g =
  if b.blen = Array.length b.bi then begin
    let cap = 2 * b.blen in
    let bi = Array.make cap 0 and bj = Array.make cap 0 in
    let bg = Array.make cap 0.0 in
    Array.blit b.bi 0 bi 0 b.blen;
    Array.blit b.bj 0 bj 0 b.blen;
    Array.blit b.bg 0 bg 0 b.blen;
    b.bi <- bi;
    b.bj <- bj;
    b.bg <- bg
  end;
  b.bi.(b.blen) <- i;
  b.bj.(b.blen) <- j;
  b.bg.(b.blen) <- g;
  b.blen <- b.blen + 1

let zero_diag_error grid cell =
  let nx = Grid.nx grid and nxy = Grid.nx grid * Grid.ny grid in
  invalid_arg
    (Printf.sprintf
       "Extractor: grid cell (%d,%d,%d) has a zero diagonal — the cell is \
        disconnected from the conductance network"
       (cell mod nx) (cell mod nxy / nx) (cell / nxy))

(* cache key material: everything the reduced port matrix depends on —
   the CG tolerance, the downstream reduction configuration tag, the
   grid shape, port labels and the full branch list (grid spacings and
   technology numbers are already folded into the branch conductances).
   The byte layout ("snoise-tile/" prefix, the "/cg:" tag, the cell
   count after the dims) is frozen so existing cache directories stay
   warm. *)
let key_material ~form ~tol grid ~labels (bb : branchbuf) =
  let buf = Buffer.create (64 + (20 * bb.blen)) in
  Buffer.add_string buf "snoise-tile/";
  Buffer.add_string buf (string_of_int Cache.format_version);
  Buffer.add_char buf '/';
  Buffer.add_string buf form;
  Buffer.add_string buf "/cg:";
  Buffer.add_int64_le buf (Int64.bits_of_float tol);
  List.iter
    (fun v ->
      Buffer.add_char buf '/';
      Buffer.add_string buf (string_of_int v))
    [ Grid.nx grid; Grid.ny grid; Grid.nz grid; Grid.cell_count grid;
      Array.length labels ];
  Array.iter
    (fun l ->
      Buffer.add_char buf '\x00';
      Buffer.add_string buf l)
    labels;
  Buffer.add_char buf '\x00';
  for k = 0 to bb.blen - 1 do
    Buffer.add_int32_le buf (Int32.of_int bb.bi.(k));
    Buffer.add_int32_le buf (Int32.of_int bb.bj.(k));
    Buffer.add_int64_le buf (Int64.bits_of_float bb.bg.(k))
  done;
  Buffer.contents buf

(* Schur reduction of the assembled die onto its ports by MG-CG: one
   CG solve per port column, run on the pool.  Every port has at least
   one contact (checked by the caller), so every column has a
   right-hand side.  Returns the row-major np x np matrix (not yet
   symmetrized), the multigrid depth and the CG iteration total. *)
let reduce_ports ~tol grid ~n ~np (bb : branchbuf) =
  let builder = N.Sparse.builder n n in
  let brow = Array.init np (fun _ -> Hashtbl.create 16) in
  (* A_pp is diagonal: ports only connect to cells *)
  let app = Array.make np 0.0 in
  for k = 0 to bb.blen - 1 do
    let u = bb.bi.(k) and v = bb.bj.(k) and g = bb.bg.(k) in
    N.Sparse.add builder u u g;
    if v < n then begin
      N.Sparse.add builder v v g;
      N.Sparse.add builder u v (-.g);
      N.Sparse.add builder v u (-.g)
    end
    else begin
      (* contact: cell u against port q *)
      let q = v - n in
      app.(q) <- app.(q) +. g;
      let tbl = brow.(q) in
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt tbl u) in
      Hashtbl.replace tbl u (cur -. g)
    end
  done;
  let aii = N.Sparse.finalize builder in
  let mg =
    try N.Mg.build ~dims:(Grid.nx grid, Grid.ny grid, Grid.nz grid) aii
    with N.Cg.Zero_diagonal cell -> zero_diag_error grid cell
  in
  (* sparse port rows of A_pi, ascending cell index *)
  let brow =
    Array.map
      (fun tbl ->
        let entries =
          Hashtbl.fold (fun i v acc -> (i, v) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        (Array.of_list (List.map fst entries),
         Array.of_list (List.map snd entries)))
      brow
  in
  let s = Array.make (np * np) 0.0 in
  let iterations = Atomic.make 0 in
  Pool.run (Pool.default ()) ~n:np (fun q ->
      let idx_q, val_q = brow.(q) in
      let rhs = Array.make n 0.0 in
      Array.iteri (fun e i -> rhs.(i) <- val_q.(e)) idx_q;
      let res =
        try N.Cg.solve ~tol ~precond:(N.Mg.apply mg) aii rhs
        with N.Cg.Zero_diagonal cell -> zero_diag_error grid cell
      in
      ignore (Atomic.fetch_and_add iterations res.N.Cg.iterations);
      if not res.N.Cg.converged then raise (N.Cg.Not_converged res);
      let x = res.N.Cg.solution in
      for p = 0 to np - 1 do
        let idx, vl = brow.(p) in
        let dot = ref 0.0 in
        Array.iteri (fun e i -> dot := !dot +. (vl.(e) *. x.(i))) idx;
        (* [0.0 -. dot], not [-. dot]: an empty row must stay +0.0 *)
        s.((p * np) + q) <- (if p = q then app.(p) else 0.0) -. !dot
      done);
  (s, N.Mg.levels mg, Atomic.get iterations)

let extract ?(config = Grid.default_config) ?(grounded_backplane = false)
    ?cache ?(tol = 1e-13) ?reduction ~tech ~die ports =
  if ports = [] then invalid_arg "Extractor.extract: no ports";
  (* artifact namespace tag: runs targeting a PRIMA-reduced flow must
     never share entries with exact runs, whatever the format version *)
  let form = match reduction with None -> "exact" | Some d -> d in
  List.iter
    (fun (p : Port.t) ->
      List.iter
        (fun r ->
          if not (G.Rect.intersects die r) then
            invalid_arg
              (Printf.sprintf "Extractor.extract: port %s outside die"
                 p.Port.name))
        p.Port.region)
    ports;
  let t0 = Unix.gettimeofday () in
  let cache = match cache with Some c -> Some c | None -> Cache.default () in
  let profile = tech.T.substrate in
  (* snap grid lines to every port rectangle edge so thin rings and
     gaps are resolved exactly rather than aliased *)
  let snap_x, snap_y =
    List.fold_left
      (fun (xs, ys) (p : Port.t) ->
        List.fold_left
          (fun (xs, ys) (r : G.Rect.t) ->
            ( r.G.Rect.x0 :: r.G.Rect.x1 :: xs,
              r.G.Rect.y0 :: r.G.Rect.y1 :: ys ))
          (xs, ys) p.Port.region)
      ([], []) ports
  in
  let grid = Grid.build ~snap_x ~snap_y config ~die profile in
  let n = Grid.cell_count grid in
  let nx = Grid.nx grid and ny = Grid.ny grid and nz = Grid.nz grid in
  let ports_arr =
    if grounded_backplane then
      Array.of_list
        (ports @ [ Port.v ~name:"backplane" ~kind:Port.Resistive [ die ] ])
    else Array.of_list ports
  in
  let np = Array.length ports_arr in
  Log.info (fun m -> m "grid %dx%dx%d (%d cells), %d ports" nx ny nz n np);
  (* --- assemble phase ------------------------------------------- *)
  (* grid branches first, then the contacts in scan order *)
  let bb = bb_create () in
  Grid.iter_conductances grid (bb_push bb);
  let um2 = T.micron *. T.micron in
  let coverage = Array.make np 0.0 in
  let add_contact cell p g =
    bb_push bb cell (n + p) g;
    coverage.(p) <- coverage.(p) +. g
  in
  for iy = 0 to ny - 1 do
    for ix = 0 to nx - 1 do
      let cell_rect = Grid.surface_cell_rect grid ix iy in
      let cell = Grid.cell_index grid ix iy 0 in
      Array.iteri
        (fun p port ->
          let a_um2 = overlap_area port cell_rect in
          if a_um2 > 0.0 then
            add_contact cell p (a_um2 *. um2 /. profile.T.contact_resistance))
        ports_arr
    done
  done;
  (* metallized backside: the last port couples to every bottom cell *)
  if grounded_backplane then begin
    let p = np - 1 in
    let iz = nz - 1 in
    for iy = 0 to ny - 1 do
      for ix = 0 to nx - 1 do
        let cell = Grid.cell_index grid ix iy iz in
        let area = Grid.dx grid ix *. Grid.dy grid iy in
        add_contact cell p (area /. profile.T.contact_resistance)
      done
    done
  end;
  Array.iteri
    (fun p c ->
      if c <= 0.0 then
        invalid_arg
          (Printf.sprintf
             "Extractor.extract: port %s overlaps no surface cell"
             ports_arr.(p).Port.name))
    coverage;
  let labels = Array.map (fun (p : Port.t) -> "p:" ^ p.Port.name) ports_arr in
  let t_assemble = Unix.gettimeofday () in
  (* --- reduce phase ---------------------------------------------- *)
  let keyed =
    Option.map
      (fun c -> (c, Cache.hex_key (key_material ~form ~tol grid ~labels bb)))
      cache
  in
  let cached =
    match keyed with
    | Some (c, k) -> (
      match Cache.lookup c ~key:k with
      | Some m
        when m.Cache.labels = labels
             && Array.length m.Cache.matrix = np * np
             && String.equal m.Cache.form form ->
        Some m.Cache.matrix
      | Some _ ->
        Log.warn (fun f ->
            f "cache entry %s does not match its key: recomputing" k);
        None
      | None -> None)
    | None -> None
  in
  let s, mg_levels, cg_iterations =
    match cached with
    | Some s -> (s, 0, 0)
    | None ->
      let s, levels, iterations = reduce_ports ~tol grid ~n ~np bb in
      (* symmetrize (iterative tolerance breaks exact symmetry) and
         persist *)
      for a = 0 to np - 1 do
        for b = a + 1 to np - 1 do
          let v = 0.5 *. (s.((a * np) + b) +. s.((b * np) + a)) in
          s.((a * np) + b) <- v;
          s.((b * np) + a) <- v
        done
      done;
      Option.iter
        (fun (c, k) ->
          Cache.store c ~key:k { Cache.labels; matrix = s; iterations; form })
        keyed;
      (s, levels, iterations)
  in
  let cache_hits = if Option.is_some cached then 1 else 0 in
  let cache_misses = if cache = None then 0 else 1 - cache_hits in
  let t_reduce = Unix.gettimeofday () in
  (* --- port-matrix phase ----------------------------------------- *)
  let s =
    N.Mat.init np np (fun p q ->
        0.5 *. (s.((p * np) + q) +. s.((q * np) + p)))
  in
  let well_caps =
    Array.to_list ports_arr
    |> List.filter (fun (p : Port.t) -> p.Port.kind = Port.Well)
    |> List.map (fun (p : Port.t) ->
           (p.Port.name, well_capacitance profile p))
  in
  let t_end = Unix.gettimeofday () in
  Atomic.set stats_ref
    (Some
       {
         grid_cells = n;
         ports = np;
         cg_iterations_total = cg_iterations;
         mg_levels;
         assemble_seconds = t_assemble -. t0;
         reduce_seconds = t_reduce -. t_assemble;
         stitch_seconds = t_end -. t_reduce;
         cache_hits;
         cache_misses;
         elapsed_seconds = t_end -. t0;
       });
  Log.info (fun m ->
      m "reduction done: %d CG iterations (%d MG levels), %d cache hit%s, \
         %.2f s"
        cg_iterations mg_levels cache_hits
        (if cache_hits = 1 then "" else "s")
        (t_end -. t0));
  Macromodel.make ~ports:ports_arr ~conductance:s ~well_capacitance:well_caps

(* The extraction window covers the substrate-relevant geometry
   (contacts, wells, probes) — not the metal routing and pads, whose
   bounding box would blow the grid cells up past the guard-ring
   feature size. *)
let substrate_bbox layout =
  let relevant (s : Sn_layout.Shape.t) =
    match s.Sn_layout.Shape.layer with
    | Sn_layout.Layer.Substrate_contact | Sn_layout.Layer.Nwell
    | Sn_layout.Layer.Diffusion | Sn_layout.Layer.Backgate_probe _ ->
      true
    | Sn_layout.Layer.Poly | Sn_layout.Layer.Metal _ | Sn_layout.Layer.Via _
    | Sn_layout.Layer.Pad ->
      false
  in
  match List.filter relevant (Sn_layout.Layout.flatten layout) with
  | [] -> invalid_arg "Extractor: layout has no substrate geometry"
  | s :: rest ->
    List.fold_left
      (fun acc sh -> G.Rect.union_bbox acc (Sn_layout.Shape.bbox sh))
      (Sn_layout.Shape.bbox s) rest

let extract_from_layout ?config ?(margin_fraction = 0.35) ?cache ?tol
    ?reduction ~tech layout =
  let bbox = substrate_bbox layout in
  let margin =
    margin_fraction *. Float.max (G.Rect.width bbox) (G.Rect.height bbox)
  in
  let die = G.Rect.expand margin bbox in
  extract ?config ?cache ?tol ?reduction ~tech ~die
    (Port.of_layout layout)
