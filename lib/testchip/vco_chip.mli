(** The paper's test chip (section 4, Figures 5-6): a 3 GHz LC-tank
    VCO in the high-ohmic 0.18 um technology, with an NMOS/PMOS
    cross-coupled pair, an accumulation-mode NMOS varactor and an
    on-chip inductor, plus the substrate injection contact (SUB) next
    to it.

    Node naming (shared across layout ports, interconnect terminals
    and the circuit):
    - ["sub_inject"]: SUB contact; driven through 50 ohm by the noise
      source
    - ["vss_ring"]: VCO guard ring (substrate tap of the analog ground)
    - ["vss_local"], ["vss_pad"]: on-chip ground ends of the extracted
      ground interconnect
    - ["vdd_local"], ["vdd_pad"]: supply net (PMOS n-well ties here)
    - ["vtune_w"], ["vtune_pad"]: varactor well / tuning pad
    - ["backgate:mn1"], ["backgate:mn2"]: NMOS bulk nodes
    - ["backgate:sub_ind"]: bulk probe under the inductor
    - ["tank_p"], ["tank_n"]: oscillator tank *)

type params = {
  core_half_pitch : float;  (** um: NMOS pair half extent *)
  ring_inner : float;  (** um: guard ring inner half width *)
  ring_strip : float;  (** um *)
  sub_offset : float;  (** um: SUB distance from the core *)
  sub_size : float;  (** um *)
  vss_wire_length : float;  (** um *)
  vss_wire_width : float;  (** um *)
  vdd_wire_length : float;
  vdd_wire_width : float;
  vtune_wire_length : float;
  vtune_wire_width : float;
  probe_resistance : float;  (** ohm *)
  tank : Sn_rf.Tank.t;
  inductor_series_r : float;  (** ohm *)
  inductor_sub_cap : float;  (** F per tank side (the paper's 120 fF) *)
  tail_current : float;  (** A (the paper's 5 mA core) *)
  nmos : Sn_circuit.Mos_model.t;
  pmos : Sn_circuit.Mos_model.t;
  pair_w : float;  (** m *)
  pair_l : float;  (** m *)
}

val default : params

val layout : params -> Sn_layout.Layout.t

val circuit : params -> vtune:float -> Sn_circuit.Netlist.t
(** Schematic-level netlist: cross-coupled pairs, tail source, tank
    (L with series R, varactors, fixed C), decoupling, supplies, the
    tuning source and the substrate noise source (0 amplitude DC; the
    flow sets the tone), all referenced to the shared node names. *)

val sensitive_nodes : (Sn_rf.Tank.entry * string) list
(** The merged-netlist node observed for each coupling entry's
    H_sub^i(f) (the inductor entry's node is the bulk probe under the
    coil; its capacitive transfer is formed analytically). *)
