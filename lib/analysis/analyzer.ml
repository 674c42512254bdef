module C = Sn_circuit

type config = {
  disabled : string list;
  ignores : (string * string option) list;
  use_pragmas : bool;
}

let default = { disabled = []; ignores = []; use_pragmas = true }

(* CODE[=SUBJECT]: '=' as the separator because subject names
   themselves contain ':' (backgate:m1, nwell:vdd) *)
let parse_ignore s =
  match String.index_opt s '=' with
  | None -> (s, None)
  | Some i ->
    (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))

let config_of_flags ~disable ~ignore =
  { default with disabled = disable; ignores = List.map parse_ignore ignore }

type report = {
  diagnostics : Rule.diagnostic list;
  suppressed : int;
}

let matches_ignore (d : Rule.diagnostic) (code, subject) =
  String.equal d.Rule.code code
  &&
  match subject with
  | None -> true
  | Some s -> String.equal (Rule.subject_name d.Rule.subject) s

let analyze ?(config = default) netlist =
  let ctx = Rule.context netlist in
  let ignores =
    if config.use_pragmas then
      config.ignores
      @ List.map
          (fun (p : C.Netlist.pragma) -> (p.ignore_code, p.ignore_subject))
          (C.Netlist.pragmas netlist)
    else config.ignores
  in
  let raw =
    List.concat_map
      (fun (r : Rule.t) ->
        if List.mem r.Rule.code config.disabled then [] else r.Rule.check ctx)
      Rules.registry
  in
  (* autofill a source location for element subjects whose rule did
     not attach one *)
  let raw =
    List.map
      (fun (d : Rule.diagnostic) ->
        match (d.Rule.loc, d.Rule.subject) with
        | None, Rule.Element name ->
          { d with Rule.loc = C.Netlist.element_loc netlist name }
        | _ -> d)
      raw
  in
  let kept, dropped =
    List.partition
      (fun d -> not (List.exists (matches_ignore d) ignores))
      raw
  in
  {
    diagnostics = List.sort_uniq Rule.compare_diagnostic kept;
    suppressed = List.length dropped;
  }

let errors r =
  List.filter
    (fun (d : Rule.diagnostic) -> d.Rule.severity = Rule.Error)
    r.diagnostics

let warnings r =
  List.filter
    (fun (d : Rule.diagnostic) -> d.Rule.severity = Rule.Warning)
    r.diagnostics

let failing ~strict r = errors r <> [] || (strict && warnings r <> [])

(* Version of the JSON report shape itself, shared by [snoise lint
   --json] and [snoise verify --json].  Bump when fields are added,
   renamed or change meaning, so downstream parsers can gate on it:
   1 = the original PR 5 shape (implicit), 2 = schema_version field
   added alongside the numerical pre-flight rules. *)
let schema_version = 2

let to_json r =
  let module J = Sn_json.Json in
  let num i = J.Num (float_of_int i) in
  J.Obj
    [
      ("tool", J.Str "snoise lint");
      ("version", J.Str "1.0.0");
      ("schema_version", num schema_version);
      ("errors", num (List.length (errors r)));
      ("warnings", num (List.length (warnings r)));
      ("suppressed", num r.suppressed);
      ("diagnostics", J.Arr (List.map Rule.diagnostic_to_json r.diagnostics));
    ]

let verify_header mode =
  let module J = Sn_json.Json in
  [
    ("schema_version", J.Num (float_of_int schema_version));
    ("mode", J.Str mode);
  ]
