type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* shortest decimal that round-trips; integers print bare *)
let float_repr v =
  if Float.is_nan v then "\"nan\""
  else if v = Float.infinity then "\"inf\""
  else if v = Float.neg_infinity then "\"-inf\""
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let rec render b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v -> Buffer.add_string b (float_repr v)
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | Arr items ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        render b v)
      items;
    Buffer.add_char b ']'
  | Obj members ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_char b '"';
        escape b k;
        Buffer.add_string b "\": ";
        render b v)
      members;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  render b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* parsing: recursive descent with an explicit depth bound so a
   pathological request line degrades to a structured error instead of
   blowing the stack *)

exception Fail of int * string

let max_depth = 200

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Fail (!pos, msg)) in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let utf8_of_code b code =
    (* basic-plane escapes only; surrogate pairs are combined by the
       caller before reaching here *)
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some v -> v
    | None -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        match e with
        | '"' -> Buffer.add_char b '"'; loop ()
        | '\\' -> Buffer.add_char b '\\'; loop ()
        | '/' -> Buffer.add_char b '/'; loop ()
        | 'b' -> Buffer.add_char b '\b'; loop ()
        | 'f' -> Buffer.add_char b '\012'; loop ()
        | 'n' -> Buffer.add_char b '\n'; loop ()
        | 'r' -> Buffer.add_char b '\r'; loop ()
        | 't' -> Buffer.add_char b '\t'; loop ()
        | 'u' ->
          let code = hex4 () in
          let code =
            if code >= 0xD800 && code <= 0xDBFF then begin
              (* high surrogate: require the paired low surrogate *)
              if
                !pos + 1 < n && s.[!pos] = '\\'
                && !pos + 1 < n
                && s.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let lo = hex4 () in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
                else fail "unpaired surrogate"
              end
              else fail "unpaired surrogate"
            end
            else code
          in
          utf8_of_code b code;
          loop ()
        | _ -> fail "bad escape")
      | c -> Buffer.add_char b c; loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    let consume p =
      while !pos < n && p s.[!pos] do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    consume (fun c -> c >= '0' && c <= '9');
    if peek () = Some '.' then begin
      advance ();
      consume (fun c -> c >= '0' && c <= '9')
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      consume (fun c -> c >= '0' && c <= '9')
    | _ -> ());
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> Num v
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let members = ref [] in
        let rec members_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          members := (k, v) :: !members;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members_loop ();
        Obj (List.rev !members)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        items_loop ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
    Error (Printf.sprintf "%s at byte %d" msg at)

(* ------------------------------------------------------------------ *)
(* accessors *)

let member k = function
  | Obj members -> List.assoc_opt k members
  | _ -> None

let to_float = function Num v -> Some v | _ -> None

let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let to_bool = function Bool v -> Some v | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function Arr items -> Some items | _ -> None

let float_list v =
  match v with
  | Arr items ->
    let rec collect acc = function
      | [] -> Some (List.rev acc)
      | Num v :: rest -> collect (v :: acc) rest
      | _ -> None
    in
    collect [] items
  | _ -> None
