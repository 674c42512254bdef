(** A circuit netlist: a titled collection of elements with validation
    and by-name merging (how the substrate macromodel, the interconnect
    parasitics and the device-level circuit are combined into one
    impact model). *)

type t

type source_loc = { file : string; line : int }
(** Where an element card came from, for diagnostics that point at the
    offending SPICE line ({!Spice.of_string} fills this in). *)

type pragma = {
  ignore_code : string;
  ignore_subject : string option;
  ignore_loc : source_loc option;
      (** the pragma's own deck line ({!Spice.of_string} fills this
          in), so a suppression that matches nothing — e.g. a typoed
          code — can be pointed at *)
}
(** A lint-suppression request carried by the netlist: ignore
    diagnostics with rule code [ignore_code], either everywhere
    ([ignore_subject = None]) or only on the named element / node /
    port.  Written in decks as
    [*%snoise ignore <code>[,<code>...] [<subject>]] and interpreted
    by [Sn_analysis]. *)

type directive = { verb : string; args : (string * string) list }
(** A tool directive carried by the netlist: a verb with key=value
    arguments, written in decks as
    [*%snoise <verb> <key>=<value> ...] — e.g.
    [*%snoise reduce keep=n1,n2] names observation nodes the
    model-order reduction must leave explicit
    ([Snoise.Reduced_model]). *)

exception Invalid of string list
(** Raised by {!create} with all validation messages. *)

val create :
  ?title:string ->
  ?pragmas:pragma list ->
  ?directives:directive list ->
  ?locs:(string * source_loc) list ->
  Element.t list ->
  t
(** [create ?title ?pragmas ?directives ?locs elements] validates and
    builds a netlist.  [locs] maps element names to their source
    locations (unknown names are kept but never looked up).  Raises
    {!Invalid} on duplicate element names, per-element validation
    failures, or a netlist with no ground reference. *)

val title : t -> string
val elements : t -> Element.t list
val element_count : t -> int

val pragmas : t -> pragma list
(** Suppression pragmas, in deck order. *)

val directives : t -> directive list
(** Tool directives, in deck order. *)

val element_loc : t -> string -> source_loc option
(** Source location of the element named, when known. *)

val element_locs : t -> (string * source_loc) list
(** All known locations, sorted by element name — what {!merge} and
    {!map} carry over. *)

val nodes : t -> string list
(** Sorted distinct non-ground node names. *)

val find : t -> string -> Element.t
(** Find an element by name.  Raises [Not_found]. *)

val mem_node : t -> string -> bool

val merge : ?title:string -> t list -> t
(** [merge parts] concatenates element lists (re-validating); node
    names shared across parts become electrical connections.  Pragmas,
    directives and source locations of every part are carried over. *)

val map : (Element.t -> Element.t) -> t -> t
(** Rewrite elements (revalidates). *)

val filter : (Element.t -> bool) -> t -> t
(** Drop elements (revalidates; useful for ablations). *)

val pp : Format.formatter -> t -> unit
