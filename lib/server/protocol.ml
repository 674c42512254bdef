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

let verb_of_string = function
  | "op" -> Some Op
  | "ac" -> Some Ac
  | "tran" -> Some Tran
  | "noise" -> Some Noise
  | "spur" -> Some Spur
  | "lint" -> Some Lint
  | "verify" -> Some Verify
  | "extract" -> Some Extract
  | "stats" -> Some Stats
  | "ping" -> Some Ping
  | "health" -> Some Health
  | "shutdown" -> Some Shutdown
  | _ -> None

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
  match json with
  | Json.Obj _ -> (
    let type_ok =
      match Json.member "type" json with
      | None | Some (Json.Str "request") -> Ok ()
      | Some (Json.Str other) ->
        Error
          (Bad_request, Printf.sprintf "unexpected message type %S" other)
      | Some _ -> Error (Bad_request, "\"type\" must be a string")
    in
    match type_ok with
    | Error (c, m) -> Error (c, m)
    | Ok () -> (
      match Json.member "verb" json with
      | None -> Error (Bad_request, "missing \"verb\"")
      | Some v -> (
        match Json.to_str v with
        | None -> Error (Bad_request, "\"verb\" must be a string")
        | Some name -> (
          match verb_of_string name with
          | None ->
            Error (Unknown_verb, Printf.sprintf "unknown verb %S" name)
          | Some verb -> (
            let id =
              Option.value (Json.member "id" json) ~default:Json.Null
            in
            let params =
              Option.value (Json.member "params" json) ~default:Json.Null
            in
            let pick_source inline_field path_field =
              match
                (Json.member inline_field json, Json.member path_field json)
              with
              | Some _, Some _ ->
                Error
                  ( Bad_request,
                    Printf.sprintf "give %S or %S, not both" inline_field
                      path_field )
              | Some v, None -> (
                match Json.to_str v with
                | Some s -> Ok (Some (Inline s))
                | None ->
                  Error
                    ( Bad_request,
                      Printf.sprintf "%S must be a string" inline_field ))
              | None, Some v -> (
                match Json.to_str v with
                | Some s -> Ok (Some (Path s))
                | None ->
                  Error
                    ( Bad_request,
                      Printf.sprintf "%S must be a string" path_field ))
              | None, None -> Ok None
            in
            let source =
              match verb with
              | Extract -> pick_source "layout" "layout_path"
              | _ -> pick_source "deck" "deck_path"
            in
            let deadline =
              match Json.member "deadline_ms" json with
              | None | Some Json.Null -> Ok None
              | Some (Json.Num v) when v > 0.0 && Float.is_finite v ->
                Ok (Some v)
              | Some _ ->
                Error
                  (Bad_request, "\"deadline_ms\" must be a positive number")
            in
            match (source, deadline) with
            | (Error _ as e), _ -> e
            | _, Error (c, m) -> Error (c, m)
            | Ok source, Ok deadline_ms -> (
              match Json.member "overrides" json with
              | None ->
                Ok { id; verb; source; overrides = []; deadline_ms; params }
              | Some (Json.Obj members) -> (
                let rec collect acc = function
                  | [] ->
                    Ok
                      (List.sort
                         (fun (a, _) (b, _) -> String.compare a b)
                         acc)
                  | (k, Json.Num v) :: rest -> collect ((k, v) :: acc) rest
                  | (k, _) :: _ ->
                    Error
                      ( Bad_request,
                        Printf.sprintf "override %S must be a number" k )
                in
                match collect [] members with
                | Ok overrides ->
                  Ok { id; verb; source; overrides; deadline_ms; params }
                | Error _ as e -> e)
              | Some _ ->
                Error (Bad_request, "\"overrides\" must be an object")))))))
  | _ -> Error (Bad_request, "a request must be a JSON object")

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
