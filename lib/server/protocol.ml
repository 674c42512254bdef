open Sn_json

type verb =
  | Op
  | Ac
  | Tran
  | Noise
  | Spur
  | Lint
  | Verify
  | Extract
  | Stats
  | Ping
  | Health
  | Shutdown

let verb_name = function
  | Op -> "op"
  | Ac -> "ac"
  | Tran -> "tran"
  | Noise -> "noise"
  | Spur -> "spur"
  | Lint -> "lint"
  | Verify -> "verify"
  | Extract -> "extract"
  | Stats -> "stats"
  | Ping -> "ping"
  | Health -> "health"
  | Shutdown -> "shutdown"

let verbs =
  [ Op; Ac; Tran; Noise; Spur; Lint; Verify; Extract; Stats; Ping; Health;
    Shutdown ]

let verb_of_string s =
  List.find_opt (fun v -> String.equal (verb_name v) s) verbs

type source = Inline of string | Path of string

type request = {
  id : Json.t;
  verb : verb;
  source : source option;
  overrides : (string * float) list;
  deadline_ms : float option;
  params : Json.t;
}

type error_code =
  | Parse_error
  | Bad_request
  | Unknown_verb
  | Deck_unreadable
  | Lint_refused
  | Engine_diag
  | Busy
  | Quota_exceeded
  | Deadline_exceeded
  | Unauthorized
  | Internal

let error_code_name = function
  | Parse_error -> "parse-error"
  | Bad_request -> "bad-request"
  | Unknown_verb -> "unknown-verb"
  | Deck_unreadable -> "deck-unreadable"
  | Lint_refused -> "lint-refused"
  | Engine_diag -> "engine-diag"
  | Busy -> "busy"
  | Quota_exceeded -> "quota-exceeded"
  | Deadline_exceeded -> "deadline-exceeded"
  | Unauthorized -> "unauthorized"
  | Internal -> "internal"

let parse_request json =
  let ( let* ) = Result.bind in
  let bad fmt = Printf.ksprintf (fun m -> Error (Bad_request, m)) fmt in
  let field k = Json.member k json in
  let string_field k v =
    Option.to_result ~none:(Bad_request, Printf.sprintf "%S must be a string" k)
      (Json.to_str v)
  in
  match json with
  | Json.Obj _ ->
    let* () =
      match field "type" with
      | None | Some (Json.Str "request") -> Ok ()
      | Some (Json.Str other) -> bad "unexpected message type %S" other
      | Some _ -> bad "\"type\" must be a string"
    in
    let* name =
      match field "verb" with
      | None -> bad "missing \"verb\""
      | Some v -> string_field "verb" v
    in
    let* verb =
      Option.to_result
        ~none:(Unknown_verb, Printf.sprintf "unknown verb %S" name)
        (verb_of_string name)
    in
    let inline_field, path_field =
      match verb with
      | Extract -> ("layout", "layout_path")
      | _ -> ("deck", "deck_path")
    in
    let* source =
      match (field inline_field, field path_field) with
      | Some _, Some _ -> bad "give %S or %S, not both" inline_field path_field
      | Some v, None ->
        Result.map (fun s -> Some (Inline s)) (string_field inline_field v)
      | None, Some v ->
        Result.map (fun s -> Some (Path s)) (string_field path_field v)
      | None, None -> Ok None
    in
    let* deadline_ms =
      match field "deadline_ms" with
      | None | Some Json.Null -> Ok None
      | Some (Json.Num v) when v > 0.0 && Float.is_finite v -> Ok (Some v)
      | Some _ -> bad "\"deadline_ms\" must be a positive number"
    in
    let* overrides =
      match field "overrides" with
      | None -> Ok []
      | Some (Json.Obj members) ->
        let* pairs =
          List.fold_left
            (fun acc (k, v) ->
              let* acc = acc in
              match v with
              | Json.Num x -> Ok ((k, x) :: acc)
              | _ -> bad "override %S must be a number" k)
            (Ok []) members
        in
        Ok (List.sort (fun (a, _) (b, _) -> String.compare a b) pairs)
      | Some _ -> bad "\"overrides\" must be an object"
    in
    let or_null = Option.value ~default:Json.Null in
    Ok
      { id = or_null (field "id"); verb; source; overrides; deadline_ms;
        params = or_null (field "params") }
  | _ -> bad "a request must be a JSON object"

type cache_note = Hit | Miss | Not_applicable

let cache_note_json = function
  | Hit -> Json.Str "hit"
  | Miss -> Json.Str "miss"
  | Not_applicable -> Json.Null

type served = {
  elapsed_ms : float;
  plan : cache_note;
  bias : cache_note;
  batched : int;
}

let response ~id ~verb ~served result =
  Json.Obj
    [
      ("type", Json.Str "response");
      ("id", id);
      ("verb", Json.Str (verb_name verb));
      ("result", result);
      ( "served",
        Json.Obj
          [
            ("elapsed_ms", Json.Num served.elapsed_ms);
            ("plan", cache_note_json served.plan);
            ("bias", cache_note_json served.bias);
            ("batched", Json.Num (float_of_int served.batched));
          ] );
    ]

let error ?(id = Json.Null) ?(data = []) code message =
  Json.Obj
    [
      ("type", Json.Str "error");
      ("id", id);
      ( "error",
        Json.Obj
          (("code", Json.Str (error_code_name code))
           :: ("message", Json.Str message)
           :: data) );
    ]

let diag_error ?id d =
  let code =
    match d with
    | Sn_engine.Diag.Bad_input { loc; _ }
      when String.equal loc.Sn_engine.Diag.analysis "lint" ->
      Lint_refused
    | _ -> Engine_diag
  in
  error ?id ~data:[ ("diag", Sn_engine.Diag.to_json d) ] code
    (Sn_engine.Diag.to_string d)
