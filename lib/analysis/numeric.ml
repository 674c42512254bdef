(* Numerical pre-flight: conditioning span, stiffness spectrum and
   pool passivity, computed statically from the magnitude-annotated
   pattern the engine exports (Stamp_plan.numeric_profile). *)

module C = Sn_circuit
module E = C.Element
module P = Sn_engine.Stamp_plan
module N = Sn_numerics
module J = Sn_json.Json

let diag = Rule.diag
let profile ctx = P.numeric_profile (Lazy.force ctx.Rule.plan)

(* ------------------------------------------------------------------ *)
(* conditioning span *)

type span = {
  sp_node : string;
  sp_ratio : float;
  sp_hi : string * float;
  sp_lo : string * float;
  sp_digits : float;
}

let span_to_json s =
  let side (element, siemens) =
    J.Obj [ ("element", J.Str element); ("siemens", J.Num siemens) ]
  in
  J.Obj
    [
      ("node", J.Str s.sp_node);
      ("ratio", J.Num s.sp_ratio);
      ("hi", side s.sp_hi);
      ("lo", side s.sp_lo);
      ("digits", J.Num s.sp_digits);
    ]

let span_limit = 1e13

let conditioning ctx =
  let prof = profile ctx in
  let spans = ref [] in
  Array.iteri
    (fun slot ws ->
      (* the row's conductance-carrying entries; capacitive stamps
         scale with frequency / step and are judged by the stiffness
         analysis instead *)
      let gs =
        List.filter_map
          (fun w ->
            if w.P.nw_g > 0.0 then Some (w.P.nw_elt, w.P.nw_g) else None)
          ws
      in
      match gs with
      | [] | [ _ ] -> ()
      | (n0, g0) :: rest ->
        let hi, lo =
          List.fold_left
            (fun ((_, ghi) as hi, ((_, glo) as lo)) ((_, g) as w) ->
              ((if g > ghi then w else hi), if g < glo then w else lo))
            ((n0, g0), (n0, g0))
            rest
        in
        let ratio = snd hi /. snd lo in
        if ratio > span_limit then
          spans :=
            {
              sp_node = prof.P.prof_names.(slot);
              sp_ratio = ratio;
              sp_hi = hi;
              sp_lo = lo;
              sp_digits = Float.max 0.0 (15.95 -. Float.log10 ratio);
            }
            :: !spans)
    prof.P.prof_weights;
  List.sort (fun a b -> Float.compare b.sp_ratio a.sp_ratio) !spans

let check_conditioning ctx =
  List.map
    (fun s ->
      diag Rule.Warning "conditioning-span" (Rule.Node s.sp_node)
        "conductances at node %s span %.1e (%s at %.3g S against %s at \
         %.3g S): LU cancellation leaves ~%.0f significant digits in the \
         pivot; beyond 1e16 it underflows to zero and the solve fails \
         with a singular pivot at this node"
        s.sp_node s.sp_ratio (fst s.sp_hi) (snd s.sp_hi) (fst s.sp_lo)
        (snd s.sp_lo) s.sp_digits)
    (conditioning ctx)

(* ------------------------------------------------------------------ *)
(* stiffness spectrum *)

type stiffness = {
  st_fast_node : string;
  st_fast_tau : float;
  st_slow_node : string;
  st_slow_tau : float;
  st_ratio : float;
  st_dt : float;
  st_steps : float;
}

let stiffness_to_json st =
  J.Obj
    [
      ("fast_node", J.Str st.st_fast_node);
      ("fast_tau_s", J.Num st.st_fast_tau);
      ("slow_node", J.Str st.st_slow_node);
      ("slow_tau_s", J.Num st.st_slow_tau);
      ("ratio", J.Num st.st_ratio);
      ("suggested_dt_s", J.Num st.st_dt);
      ("steps_to_cover", J.Num st.st_steps);
    ]

let stiffness_limit = 1e12

(* a node counts as resistively tied when its conductance sum clears
   this floor; below it the node's mode is quasi-static (set by gmin /
   leakage), not step-limiting *)
let g_floor = 1e-12

let stiffness ctx =
  let prof = profile ctx in
  let best = ref None in
  Array.iteri
    (fun slot ws ->
      let gsum = List.fold_left (fun a w -> a +. w.P.nw_g) 0.0 ws
      and csum = List.fold_left (fun a w -> a +. w.P.nw_c) 0.0 ws in
      if csum > 0.0 && gsum > g_floor then begin
        let tau = csum /. gsum in
        let node = prof.P.prof_names.(slot) in
        best :=
          match !best with
          | None -> Some ((node, tau), (node, tau))
          | Some (((_, tf) as fast), ((_, ts) as slow)) ->
            Some
              ( (if tau < tf then (node, tau) else fast),
                if tau > ts then (node, tau) else slow )
      end)
    prof.P.prof_weights;
  match !best with
  | Some ((fn, ft), (sn, st)) when fn <> sn ->
    let dt = ft /. 2.0 in
    Some
      {
        st_fast_node = fn;
        st_fast_tau = ft;
        st_slow_node = sn;
        st_slow_tau = st;
        st_ratio = st /. ft;
        st_dt = dt;
        st_steps = 5.0 *. st /. dt;
      }
  | _ -> None

let check_stiffness ctx =
  match stiffness ctx with
  | Some s when s.st_ratio > stiffness_limit ->
    [ diag Rule.Warning "stiff-transient" (Rule.Node s.st_fast_node)
        "stiffness ratio %.1e: node %s relaxes in %.2g s while node %s \
         needs %.2g s — resolving the fast mode (dt <= %.2g s) while \
         covering the slow one takes ~%.1e steps, so transient runs \
         will truncate; simulate the fast subcircuit separately or \
         relax dt past the fast constant"
        s.st_ratio s.st_fast_node s.st_fast_tau s.st_slow_node
        s.st_slow_tau s.st_dt s.st_steps ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* pool passivity *)

type pool_defect = {
  pd_pencil : [ `Conductance | `Capacitance ];
  pd_node : string;
  pd_defect : float;
  pd_tol : float;
  pd_dim : int;
  pd_negative : int;
}

let pool_defect_to_json d =
  J.Obj
    [
      ( "pencil",
        J.Str
          (match d.pd_pencil with
          | `Conductance -> "conductance"
          | `Capacitance -> "capacitance") );
      ("node", J.Str d.pd_node);
      ("defect", J.Num d.pd_defect);
      ("tolerance", J.Num d.pd_tol);
      ("dim", J.Num (float_of_int d.pd_dim));
      ("negative_branches", J.Num (float_of_int d.pd_negative));
    ]

(* minimal union-find over node names (the rules module has its own;
   depending on it here would be circular: Rules registers our
   checks) *)
module Uf = struct
  let find (t : (string, string) Hashtbl.t) n =
    let rec go n =
      match Hashtbl.find_opt t n with
      | None -> n
      | Some p ->
        let r = go p in
        Hashtbl.replace t n r;
        r
    in
    go n

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then Hashtbl.replace t ra rb
end

let pool_value = function
  | E.Resistor { ohms; _ } -> Some (1.0 /. ohms)
  | E.Capacitor { farads; _ } -> Some farads
  | _ -> None

let pool_passivity ctx =
  let pool =
    List.filter
      (fun e -> Option.is_some (pool_value e))
      (C.Netlist.elements ctx.Rule.netlist)
  in
  if List.for_all (fun e -> Option.get (pool_value e) > 0.0) pool then
    (* all branch values positive: the assembled matrices are
       symmetric, diagonally dominant with nonnegative diagonal —
       PSD by Gershgorin, no factorization needed *)
    []
  else begin
    let uf = Hashtbl.create 64 in
    List.iter
      (fun e ->
        match List.filter (fun n -> not (E.is_ground n)) (E.nodes e) with
        | a :: rest -> List.iter (Uf.union uf a) rest
        | [] -> ())
      pool;
    (* components that actually contain a negative branch; the rest
       are passive by the same dominance argument *)
    let tainted = Hashtbl.create 8 in
    List.iter
      (fun e ->
        if Option.get (pool_value e) < 0.0 then
          match List.filter (fun n -> not (E.is_ground n)) (E.nodes e) with
          | n :: _ -> Hashtbl.replace tainted (Uf.find uf n) ()
          | [] -> ())
      pool;
    let members : (string, string list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun e ->
        List.iter
          (fun n ->
            if not (E.is_ground n) then begin
              let root = Uf.find uf n in
              if Hashtbl.mem tainted root then
                Hashtbl.replace members root
                  (n :: Option.value ~default:[] (Hashtbl.find_opt members root))
            end)
          (E.nodes e))
      pool;
    let defects = ref [] in
    Hashtbl.iter
      (fun root nodes ->
        let nodes = Array.of_list (List.sort_uniq String.compare nodes) in
        let index = Hashtbl.create 32 in
        Array.iteri (fun i n -> Hashtbl.replace index n i) nodes;
        let dim = Array.length nodes in
        let g = N.Mat.make dim dim and c = N.Mat.make dim dim in
        let negative = ref 0 in
        List.iter
          (fun e ->
            match E.nodes e with
            | [ n1; n2 ]
              when (E.is_ground n1 || Uf.find uf n1 = root)
                   && (E.is_ground n2 || Uf.find uf n2 = root)
                   && not (E.is_ground n1 && E.is_ground n2) ->
              let v = Option.get (pool_value e) in
              if v < 0.0 then incr negative;
              let m =
                match e with E.Resistor _ -> g | _ -> c
              in
              let stamp n w =
                if not (E.is_ground n) then
                  N.Mat.add_to m (Hashtbl.find index n) (Hashtbl.find index n) w
              in
              stamp n1 v;
              stamp n2 v;
              if (not (E.is_ground n1)) && not (E.is_ground n2) then begin
                let i = Hashtbl.find index n1 and j = Hashtbl.find index n2 in
                N.Mat.add_to m i j (-.v);
                N.Mat.add_to m j i (-.v)
              end
            | _ -> ())
          pool;
        List.iter
          (fun (tag, m) ->
            let v = N.Passivity.psd m in
            if not (N.Passivity.passes v) then
              defects :=
                {
                  pd_pencil = tag;
                  pd_node = nodes.(v.N.Passivity.index);
                  pd_defect = v.N.Passivity.defect;
                  pd_tol = v.N.Passivity.tol;
                  pd_dim = dim;
                  pd_negative = !negative;
                }
                :: !defects)
          [ (`Conductance, g); (`Capacitance, c) ])
      members;
    List.sort
      (fun a b -> Float.compare a.pd_defect b.pd_defect)
      !defects
  end

let check_passivity ctx =
  List.map
    (fun d ->
      let pencil =
        match d.pd_pencil with
        | `Conductance -> "conductance"
        | `Capacitance -> "capacitance"
      in
      diag Rule.Error "non-passive-pool" (Rule.Node d.pd_node)
        "the R/C pool is not passive: the %s matrix has LDL^T pivot \
         %.3g (tolerance %.3g) at node %s (%d-node component, %d \
         negative branch%s) — a corrupted or de-passivated reduced \
         realization; AC and transient results would be meaningless"
        pencil d.pd_defect d.pd_tol d.pd_node d.pd_dim d.pd_negative
        (if d.pd_negative = 1 then "" else "es"))
    (pool_passivity ctx)
