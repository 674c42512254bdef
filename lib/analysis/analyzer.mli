(** The analyzer driver: runs every enabled rule over a netlist and
    produces a deterministic, suppression-aware report. *)

(** What to run and what to silence. *)
type config = {
  disabled : string list;
      (** rule codes not to run at all (their checks never execute) *)
  ignores : (string * string option) list;
      (** [(code, subject)] suppressions applied after running: a
          diagnostic is dropped when its code matches and — if the
          subject is [Some s] — its subject name equals [s].  [None]
          suppresses the code everywhere. *)
  use_pragmas : bool;
      (** honour [*%snoise ignore] pragmas carried by the netlist
          (see {!Sn_circuit.Spice}); they extend [ignores] *)
}

val default : config
(** Everything enabled, no suppressions, pragmas honoured. *)

val config_of_flags : disable:string list -> ignore:string list -> config
(** {!default} with the [--disable CODE] and [--ignore CODE[=SUBJECT]]
    flags of [snoise lint] / [snoise verify] (and the same-named params
    of the service's [lint] verb) applied.  The subject separator is
    ['='] because subject names themselves contain [':']
    ([backgate:m1], [nwell:vdd]). *)

type report = {
  diagnostics : Rule.diagnostic list;
      (** deduplicated and sorted with {!Rule.compare_diagnostic}:
          errors first, then by code, subject and message — stable
          across runs and element orderings *)
  suppressed : int;
      (** diagnostics dropped by [ignores] or deck pragmas *)
}

val analyze : ?config:config -> Sn_circuit.Netlist.t -> report
(** Run the {!Rules.registry} over the netlist (compiling its
    {!Sn_engine.Stamp_plan} lazily for the pattern rules).  Element
    subjects are given the element's SPICE source location when the
    netlist carries one and the rule did not attach a location
    itself. *)

val errors : report -> Rule.diagnostic list
val warnings : report -> Rule.diagnostic list

val failing : strict:bool -> report -> bool
(** The lint verdict: any error, or with [strict] any warning too —
    [snoise lint]'s exit 1 and the service's ["failing"] member. *)

val schema_version : int
(** Version of the JSON report shape emitted by {!to_json} (and by
    [snoise verify --json], which shares it).  Bumped when fields are
    added or change meaning; see docs/LINT.md. *)

val to_json : report -> Sn_json.Json.t
(** Stable JSON object:
    [{"tool", "version", "schema_version", "errors", "warnings",
    "suppressed", "diagnostics": [...]}] with each diagnostic rendered
    by {!Rule.diagnostic_to_json}. *)

val verify_header : string -> (string * Sn_json.Json.t) list
(** [verify_header mode] is the [schema_version] and [mode] members
    that open every verify JSON object ([snoise verify --json] and the
    service's [verify] verb); [mode] is ["deck"], ["cache"] or
    ["plans"]. *)
