(** Layout cells: a named list of shapes plus placed sub-cell
    instances. *)

type instance = {
  cell_name : string;
  transform : Sn_geometry.Transform.t;
}

type t = {
  name : string;
  shapes : Shape.t list;
  instances : instance list;
}

val make : name:string -> ?instances:instance list -> Shape.t list -> t

val add_shape : Shape.t -> t -> t
val add_instance : instance -> t -> t
