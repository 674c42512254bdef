(** Minimal JSON values: the one way the program builds and reads
    JSON.

    Every producer — solver diagnostics, lint and verify reports, the
    wire protocol, the bench's [BENCH_N.json] files — builds a {!t};
    {!parse} reads what comes from outside the process (requests,
    files, replies).  A small self-contained value type with a
    recursive-descent parser and a deterministic printer; no external
    dependency.

    Printing is canonical and stable: object members keep their
    construction order, floats render as the shortest of [%.17g] (or a
    plain integer when exact), and non-finite floats render as the
    strings ["nan"], ["inf"], ["-inf"].  Stable bytes matter: the
    protocol tests assert that batched and individual sweeps produce
    byte-identical result payloads, and [test/golden] pins the CLI's
    JSON reports. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in construction order *)

val parse : string -> (t, string) result
(** [parse s] parses one JSON value (surrounding whitespace allowed).
    Errors carry a byte offset and a reason; nesting beyond 200 levels
    is rejected rather than risking a stack overflow on hostile
    input.  Trailing garbage after the value is an error. *)

val to_string : t -> string
(** Canonical single-line rendering (no insignificant whitespace). *)

(** {1 Accessors}

    All return [None] on a type mismatch — request handlers turn that
    into a structured [bad-request] reply, never an exception. *)

val member : string -> t -> t option
(** [member k (Obj _)] is the value bound to [k], if any; [None] on
    non-objects. *)

val to_float : t -> float option
(** Numbers only (no string coercion). *)

val to_int : t -> int option
(** Numbers with an exact integer value. *)

val to_bool : t -> bool option

val to_str : t -> string option

val to_list : t -> t list option
(** Arrays only. *)

val float_list : t -> float list option
(** An array of numbers, e.g. a frequency list. *)
