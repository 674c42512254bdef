(** Bounded string-keyed LRU map.

    Bounds every layer of the serving layer's plan cache: parsed
    decks, compiled plans, extracted macromodels and built VCO flows
    (each resident flow holds a substrate macromodel plus compiled
    tank plans, so an unbounded table is an OOM waiting for a
    parameter sweep).  Recency is a monotonic tick; eviction is an
    O(n) minimum scan, which at the single-digit-to-hundreds
    capacities used here is cheaper than intrusive-list bookkeeping.

    Not thread-safe — callers serialize access (the plan cache holds
    its own lock around every probe). *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] makes an empty cache holding at most
    [capacity] entries.  @raise Invalid_argument if [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Look up a key, refreshing its recency on a hit. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or replace) a binding, evicting least-recently-used
    entries until the cache fits its capacity. *)

val trim : 'a t -> max_entries:int -> int
(** [trim t ~max_entries] evicts LRU entries until at most
    [max_entries] remain (memory-pressure shedding); returns how many
    were dropped. *)

val length : 'a t -> int
(** Resident entries. *)

val capacity : 'a t -> int

val evictions : 'a t -> int
(** Total evictions since creation (capacity plus {!trim}). *)

val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
(** Fold over the resident values, in no particular order; recency is
    not touched. *)

val clear : 'a t -> unit
