module C = Sn_circuit
module N = Sn_numerics
module P = Stamp_plan

let log_src = Logs.Src.create "sn.engine.tran" ~doc:"transient analysis"

module Log = (val Logs.src_log log_src : Logs.LOG)

type method_ = Backward_euler | Trapezoidal

type initial_condition = Operating_point | Uic of (string * float) list

type options = {
  method_ : method_;
  max_newton : int;
  tolerance : float;
  ic : initial_condition;
  record : string list option;
  linear_fast_path : bool;
  max_step_retries : int;
}

let default_options =
  { method_ = Trapezoidal; max_newton = 50; tolerance = 1e-9;
    ic = Operating_point; record = None; linear_fast_path = true;
    max_step_retries = 6 }

exception Step_failed of { time : float; iterations : int }

type dataset = {
  times : float array;
  names : string array;
  data : float array array;
  truncated : Diag.t option;
}

(* Dynamic-element state carried between time points, as flat arrays
   indexed by the plan's per-kind slots ([ci] / [qi] / [li]) — the hot
   loop touches no hashtables. *)
type state = {
  cap_v : float array;  (* capacitor voltage at accepted point *)
  cap_i : float array;  (* capacitor current at accepted point *)
  q_prev : float array;  (* varactor charge *)
  vq_prev : float array;
  iq_prev : float array;
  il_prev : float array;  (* inductor current *)
  vl_prev : float array;
}

let volt_of x slot = if slot < 0 then 0.0 else x.(slot)

let init_state (plan : P.t) x0 =
  let mk n = Array.make (max n 1) 0.0 in
  let st =
    { cap_v = mk plan.P.n_caps; cap_i = mk plan.P.n_caps;
      q_prev = mk plan.P.n_charges; vq_prev = mk plan.P.n_charges;
      iq_prev = mk plan.P.n_charges; il_prev = mk plan.P.n_inds;
      vl_prev = mk plan.P.n_inds }
  in
  Array.iter
    (fun (e : P.elt) ->
      match e with
      | P.Capacitor { ci; i; j; _ } ->
        st.cap_v.(ci) <- volt_of x0 i -. volt_of x0 j
      | P.Varactor { qi; i; j; vmodel; fm } ->
        let v = volt_of x0 i -. volt_of x0 j in
        st.q_prev.(qi) <- C.Varactor_model.charge vmodel v *. fm;
        st.vq_prev.(qi) <- v
      | P.Inductor { li; b; i; j; _ } ->
        st.il_prev.(li) <- x0.(b);
        st.vl_prev.(li) <- volt_of x0 i -. volt_of x0 j
      | P.Resistor _ | P.Vsource _ | P.Isource _ | P.Vccs _ | P.Vcvs _
      | P.Mosfet _ ->
        ())
    plan.P.elts;
  st

let clone_state st =
  { cap_v = Array.copy st.cap_v; cap_i = Array.copy st.cap_i;
    q_prev = Array.copy st.q_prev; vq_prev = Array.copy st.vq_prev;
    iq_prev = Array.copy st.iq_prev; il_prev = Array.copy st.il_prev;
    vl_prev = Array.copy st.vl_prev }

let copy_state ~src ~dst =
  let blit a b = Array.blit a 0 b 0 (Array.length a) in
  blit src.cap_v dst.cap_v;
  blit src.cap_i dst.cap_i;
  blit src.q_prev dst.q_prev;
  blit src.vq_prev dst.vq_prev;
  blit src.iq_prev dst.iq_prev;
  blit src.il_prev dst.il_prev;
  blit src.vl_prev dst.vl_prev

(* Companion coefficients for a linear capacitance. *)
let cap_companion options ~h ~v_prev ~i_prev c =
  match options.method_ with
  | Backward_euler ->
    let geq = c /. h in
    (geq, -.(geq *. v_prev))
  | Trapezoidal ->
    let geq = 2.0 *. c /. h in
    (geq, -.(geq *. v_prev) -. i_prev)

(* Assemble the companion-model MNA system at time [t], candidate [x].
   The walk is over the compiled plan, so the per-iteration cost is
   pure numeric stamping; the assembler reuses its sparsity pattern
   (and, when frozen, skips matrix work entirely). *)
let assemble (plan : P.t) asm rhs options (state : state) ~h ~t x =
  Assembler.start asm;
  Array.fill rhs 0 (Array.length rhs) 0.0;
  let gmin = Dc.default_options.Dc.gmin in
  let stamp i j g = Assembler.add asm i j g in
  let inject i v = if i >= 0 then rhs.(i) <- rhs.(i) +. v in
  let stamp_conductance i j g =
    stamp i i g;
    stamp j j g;
    stamp i j (-.g);
    stamp j i (-.g)
  in
  Array.iter
    (fun (e : P.elt) ->
      match e with
      | P.Resistor { i; j; g } -> stamp_conductance i j g
      | P.Capacitor { ci; i; j; c } ->
        let geq, ieq =
          cap_companion options ~h ~v_prev:state.cap_v.(ci)
            ~i_prev:state.cap_i.(ci) c
        in
        stamp_conductance i j geq;
        inject i (-.ieq);
        inject j ieq
      | P.Varactor { qi; i; j; vmodel; fm } ->
        let v = volt_of x i -. volt_of x j in
        let cv = C.Varactor_model.capacitance vmodel v *. fm in
        let qv = C.Varactor_model.charge vmodel v *. fm in
        let geq, ieq =
          match options.method_ with
          | Backward_euler ->
            let geq = cv /. h in
            (geq, ((qv -. state.q_prev.(qi)) /. h) -. (geq *. v))
          | Trapezoidal ->
            let geq = 2.0 *. cv /. h in
            ( geq,
              (2.0 *. (qv -. state.q_prev.(qi)) /. h)
              -. state.iq_prev.(qi) -. (geq *. v) )
        in
        stamp_conductance i j geq;
        inject i (-.ieq);
        inject j ieq
      | P.Inductor { li; b; i; j; henries } ->
        stamp b i 1.0;
        stamp b j (-1.0);
        stamp i b 1.0;
        stamp j b (-1.0);
        (match options.method_ with
         | Backward_euler ->
           let z = henries /. h in
           stamp b b (-.z);
           rhs.(b) <- rhs.(b) -. (z *. state.il_prev.(li))
         | Trapezoidal ->
           let z = 2.0 *. henries /. h in
           stamp b b (-.z);
           rhs.(b) <- rhs.(b) -. (z *. state.il_prev.(li))
                      -. state.vl_prev.(li))
      | P.Vsource { b; i; j; wave; _ } ->
        stamp b i 1.0;
        stamp b j (-1.0);
        stamp i b 1.0;
        stamp j b (-1.0);
        rhs.(b) <- rhs.(b) +. C.Waveform.value wave t
      | P.Isource { i; j; wave; _ } ->
        let v = C.Waveform.value wave t in
        inject i (-.v);
        inject j v
      | P.Vccs { i; j; k; l; gm } ->
        stamp i k gm;
        stamp i l (-.gm);
        stamp j k (-.gm);
        stamp j l gm
      | P.Vcvs { b; i; j; k; l; gain } ->
        stamp b i 1.0;
        stamp b j (-1.0);
        stamp b k (-.gain);
        stamp b l gain;
        stamp i b 1.0;
        stamp j b (-1.0)
      | P.Mosfet m ->
        let d = m.P.md and g = m.P.mg and s = m.P.ms and b = m.P.mbk in
        let lin =
          Device_eval.mos ~model:m.P.mmodel ~w:m.P.mw ~l:m.P.ml
            ~mult:m.P.mmult ~vd:(volt_of x d) ~vg:(volt_of x g)
            ~vs:(volt_of x s) ~vb:(volt_of x b)
        in
        let linear_part =
          (lin.Device_eval.g_dd *. volt_of x d)
          +. (lin.Device_eval.g_dg *. volt_of x g)
          +. (lin.Device_eval.g_ds *. volt_of x s)
          +. (lin.Device_eval.g_db *. volt_of x b)
        in
        let ieq = lin.Device_eval.id -. linear_part in
        stamp d d lin.Device_eval.g_dd;
        stamp d g lin.Device_eval.g_dg;
        stamp d s lin.Device_eval.g_ds;
        stamp d b lin.Device_eval.g_db;
        stamp s d (-.lin.Device_eval.g_dd);
        stamp s g (-.lin.Device_eval.g_dg);
        stamp s s (-.lin.Device_eval.g_ds);
        stamp s b (-.lin.Device_eval.g_db);
        inject d (-.ieq);
        inject s ieq)
    plan.P.elts;
  for i = 0 to plan.P.n_nodes - 1 do
    Assembler.add asm i i gmin
  done

(* Solve one time point.  A linear plan on the fast path needs no
   Newton loop: the matrix does not depend on [x], so a single assembly
   (a no-op once the assembler is frozen) and one solve suffice. *)
let solve_point ?(fault_scope = 0) plan asm rhs options state ~h ~t x_guess =
  (* fault-injection site: pretend this time-point solve stalled *)
  if Fault.fire ~scope_index:fault_scope Tran_solve then
    raise (Step_failed { time = t; iterations = 0 });
  if P.linear plan && options.linear_fast_path then begin
    assemble plan asm rhs options state ~h ~t x_guess;
    try Assembler.solve asm rhs
    with N.Splu.Singular _ -> raise (Step_failed { time = t; iterations = 0 })
  end
  else begin
    let dim = P.dim plan in
    let x = Array.copy x_guess in
    let rec newton k =
      if k >= options.max_newton then
        raise (Step_failed { time = t; iterations = k });
      assemble plan asm rhs options state ~h ~t x;
      let x_new =
        try Assembler.solve asm rhs
        with N.Splu.Singular _ ->
          raise (Step_failed { time = t; iterations = k })
      in
      let max_delta = ref 0.0 in
      for i = 0 to dim - 1 do
        max_delta := Float.max !max_delta (Float.abs (x_new.(i) -. x.(i)));
        x.(i) <- x_new.(i)
      done;
      if !max_delta < options.tolerance then x else newton (k + 1)
    in
    newton 0
  end

(* After accepting a step, refresh the dynamic-element states. *)
let update_state (plan : P.t) options (state : state) ~h x =
  Array.iter
    (fun (e : P.elt) ->
      match e with
      | P.Capacitor { ci; i; j; c } ->
        let v = volt_of x i -. volt_of x j in
        let geq, ieq =
          cap_companion options ~h ~v_prev:state.cap_v.(ci)
            ~i_prev:state.cap_i.(ci) c
        in
        state.cap_i.(ci) <- (geq *. v) +. ieq;
        state.cap_v.(ci) <- v
      | P.Varactor { qi; i; j; vmodel; fm } ->
        let v = volt_of x i -. volt_of x j in
        let q = C.Varactor_model.charge vmodel v *. fm in
        let i_new =
          match options.method_ with
          | Backward_euler -> (q -. state.q_prev.(qi)) /. h
          | Trapezoidal ->
            (2.0 *. (q -. state.q_prev.(qi)) /. h) -. state.iq_prev.(qi)
        in
        state.q_prev.(qi) <- q;
        state.vq_prev.(qi) <- v;
        state.iq_prev.(qi) <- i_new
      | P.Inductor { li; b; i; j; _ } ->
        state.il_prev.(li) <- x.(b);
        state.vl_prev.(li) <- volt_of x i -. volt_of x j
      | P.Resistor _ | P.Vsource _ | P.Isource _ | P.Vccs _ | P.Vcvs _
      | P.Mosfet _ ->
        ())
    plan.P.elts

let initial_unknowns mna plan options =
  match options.ic with
  | Operating_point -> Dc.unknowns (Dc.solve_plan plan)
  | Uic pairs ->
    let x = Array.make (Mna.dim mna) 0.0 in
    List.iter
      (fun (node, v) ->
        let s = Mna.node_slot mna node in
        if s >= 0 then x.(s) <- v)
      pairs;
    x

let recorded_nodes mna options =
  match options.record with
  | Some nodes -> Array.of_list nodes
  | None -> Mna.node_names mna

let simulate ?(options = default_options) ~tstop ~dt netlist =
  if tstop <= 0.0 || dt <= 0.0 then
    invalid_arg "Tran.simulate: tstop and dt must be > 0";
  let steps = Float.round (tstop /. dt) in
  (* a float beyond the array bound has no int conversion to trust:
     int_of_float would wrap it to some small (often zero) count *)
  if not (steps < float_of_int Sys.max_array_length) then
    invalid_arg "Tran.simulate: tstop/dt does not round to a representable \
                 step count";
  let n_steps = int_of_float steps in
  let mna = Mna.build netlist in
  let plan = P.build mna in
  let x0 = initial_unknowns mna plan options in
  let recorded = recorded_nodes mna options in
  (* resolve recorded slots once, outside the time loop *)
  let rec_slots = Array.map (fun n -> Mna.node_slot mna n) recorded in
  let times = Array.init (n_steps + 1) (fun k -> float_of_int k *. dt) in
  let data = Array.map (fun _ -> Array.make (n_steps + 1) 0.0) recorded in
  let record k x =
    Array.iteri (fun r s -> data.(r).(k) <- volt_of x s) rec_slots
  in
  let state = init_state plan x0 in
  let asm = Assembler.create (P.dim plan) in
  let rhs = Array.make (P.dim plan) 0.0 in
  record 0 x0;
  let x = ref x0 in
  let scope = ref 0 in
  let sp state ~h ~t x =
    incr scope;
    (* per-step cancellation tick: a deadline-armed transient stops at
       the next solve boundary *)
    N.Cancel.tick ();
    solve_point ~fault_scope:!scope plan asm rhs options state ~h ~t x
  in
  (* Advance one output interval [times.(k-1), times.(k)].  The plain
     path is one full-[dt] solve; on [Step_failed] the whole interval
     is re-integrated from the accepted state with 2^r substeps of
     [dt / 2^r], doubling [r] up to [max_step_retries].  [Error]
     carries the smallest step tried and the retry count. *)
  let advance k =
    let t_prev = times.(k - 1) in
    match
      let x_next = sp state ~h:dt ~t:times.(k) !x in
      (* fixed step + linear circuit: after the first point the matrix
         can never change again, so pin the factorization — every
         remaining step is two triangular solves *)
      if P.linear plan && options.linear_fast_path
         && not (Assembler.frozen asm)
      then Assembler.freeze asm;
      update_state plan options state ~h:dt x_next;
      x_next
    with
    | x_next -> Ok x_next
    | exception Step_failed _ ->
      (* substepping changes the matrix values, so the pinned
         factorization (if any) must be released first *)
      Assembler.unfreeze asm;
      let rec retry r =
        if r > options.max_step_retries then
          Error (dt /. float_of_int (1 lsl options.max_step_retries),
                 options.max_step_retries)
        else begin
          let sub = 1 lsl r in
          let h = dt /. float_of_int sub in
          Log.debug (fun m ->
              m "step at t = %g s failed; retrying with %d substeps of %g s"
                times.(k) sub h);
          let st = clone_state state in
          match
            let xr = ref !x in
            for s = 1 to sub do
              let t_s = t_prev +. (float_of_int s *. h) in
              let xn = sp st ~h ~t:t_s !xr in
              update_state plan options st ~h xn;
              xr := xn
            done;
            !xr
          with
          | x_next ->
            copy_state ~src:st ~dst:state;
            Ok x_next
          | exception Step_failed _ -> retry (r + 1)
        end
      in
      retry 1
  in
  let rec march k =
    if k > n_steps then { times; names = recorded; data; truncated = None }
    else
      match advance k with
      | Ok x_next ->
        record k x_next;
        x := x_next;
        march (k + 1)
      | Error (dt_final, retries) ->
        let diag =
          Diag.Step_truncated
            { loc = Diag.loc "tran" ~time:times.(k); dt_final; retries;
              completed_points = k }
        in
        Log.warn (fun m -> m "%a" Diag.pp diag);
        { times = Array.sub times 0 k;
          names = recorded;
          data = Array.map (fun w -> Array.sub w 0 k) data;
          truncated = Some diag }
  in
  march 1

let node d name =
  let rec find k =
    if k >= Array.length d.names then raise Not_found
    else if String.equal d.names.(k) name then d.data.(k)
    else find (k + 1)
  in
  find 0

let samples_after d ~t0 name =
  let w = node d name in
  let start = ref 0 in
  Array.iteri (fun k t -> if t < t0 then start := k + 1) d.times;
  Array.sub w !start (Array.length w - !start)

(* ------------------------------------------------------------------ *)
(* adaptive stepping: step-doubling local truncation error control *)

let simulate_adaptive ?(options = default_options) ?dt_min ?dt_max
    ?(lte_tol = 1e-6) ~tstop ~dt netlist =
  if tstop <= 0.0 || dt <= 0.0 then
    invalid_arg "Tran.simulate_adaptive: tstop and dt must be > 0";
  let dt_min = match dt_min with Some v -> v | None -> dt /. 1024.0 in
  let dt_max = match dt_max with Some v -> v | None -> 16.0 *. dt in
  let mna = Mna.build netlist in
  let plan = P.build mna in
  let x0 = initial_unknowns mna plan options in
  let recorded = recorded_nodes mna options in
  let rec_slots = Array.map (fun n -> Mna.node_slot mna n) recorded in
  let times = ref [ 0.0 ] in
  let data = Array.map (fun _ -> ref []) recorded in
  let record x =
    Array.iteri (fun r s -> data.(r) := volt_of x s :: !(data.(r))) rec_slots
  in
  record x0;
  (* the step size changes, so the matrix values change per trial — but
     the sparsity pattern doesn't: one assembler, refactored in place,
     never frozen *)
  let asm = Assembler.create (P.dim plan) in
  let rhs = Array.make (P.dim plan) 0.0 in
  let state = ref (init_state plan x0) in
  let x = ref x0 in
  let t = ref 0.0 and h = ref dt in
  let scope = ref 0 in
  let sp state ~h ~t x =
    incr scope;
    (* per-step cancellation tick: a deadline-armed transient stops at
       the next solve boundary *)
    N.Cancel.tick ();
    solve_point ~fault_scope:!scope plan asm rhs options state ~h ~t x
  in
  let n_accepted = ref 1 in
  let rejects = ref 0 in
  let truncated = ref None in
  while !truncated = None && !t < tstop -. 1e-18 do
    let h_eff = Float.min !h (tstop -. !t) in
    (* A Newton stall anywhere in the trial is handled like an LTE
       rejection: halve the step and try again from the accepted
       state (the trials only touch cloned states). *)
    let trial =
      try
        (* one full step *)
        let st_full = clone_state !state in
        let x_full = sp st_full ~h:h_eff ~t:(!t +. h_eff) !x in
        (* two half steps *)
        let st_half = clone_state !state in
        let h2 = h_eff /. 2.0 in
        let x_mid = sp st_half ~h:h2 ~t:(!t +. h2) !x in
        update_state plan options st_half ~h:h2 x_mid;
        let x_end = sp st_half ~h:h2 ~t:(!t +. h_eff) x_mid in
        let err = ref 0.0 in
        for i = 0 to P.n_nodes plan - 1 do
          err := Float.max !err (Float.abs (x_full.(i) -. x_end.(i)))
        done;
        Some (st_half, h2, x_end, !err)
      with Step_failed _ -> None
    in
    match trial with
    | Some (st_half, h2, x_end, err) when err <= lte_tol ->
      (* accept the more accurate half-step solution *)
      update_state plan options st_half ~h:h2 x_end;
      state := st_half;
      x := x_end;
      t := !t +. h_eff;
      times := !t :: !times;
      record x_end;
      incr n_accepted;
      rejects := 0;
      if err < lte_tol /. 4.0 then h := Float.min (2.0 *. h_eff) dt_max
    | Some _ | None ->
      if h_eff <= dt_min *. 1.000001 then begin
        let diag =
          Diag.Step_truncated
            { loc = Diag.loc "tran" ~time:(!t +. h_eff); dt_final = h_eff;
              retries = !rejects; completed_points = !n_accepted }
        in
        Log.warn (fun m -> m "%a" Diag.pp diag);
        truncated := Some diag
      end
      else begin
        incr rejects;
        h := Float.max (h_eff /. 2.0) dt_min
      end
  done;
  {
    times = Array.of_list (List.rev !times);
    names = recorded;
    data = Array.map (fun cell -> Array.of_list (List.rev !cell)) data;
    truncated = !truncated;
  }
