(** LU factorization with partial pivoting, functorized over the scalar
    field so that the same code solves the real (DC, transient) and
    complex (AC) linear systems of the circuit engine. *)

exception Singular of int
(** [Singular k] is raised when no usable pivot exists at elimination
    step [k]. *)

module Make (F : Field.S) : sig
  type matrix = F.t array array
  (** Square matrices as arrays of rows. *)

  type t
  (** A factorization [P*A = L*U]. *)

  val matrix_of_fun : int -> (int -> int -> F.t) -> matrix
  (** [matrix_of_fun n f] is the [n]x[n] matrix with entries [f i j]. *)

  val decompose : matrix -> t
  (** [decompose a] factorizes a copy of [a].
      Raises {!Singular} if [a] is singular to working precision and
      [Invalid_argument] if [a] is not square. *)

  val solve : t -> F.t array -> F.t array
  (** [solve lu b] solves [A x = b]. *)

  val solve_matrix : matrix -> F.t array -> F.t array
  (** [solve_matrix a b] is [solve (decompose a) b]. *)

  val solve_transpose : t -> F.t array -> F.t array
  (** [solve_transpose lu b] solves [A{^T} x = b] on the {e existing}
      factorization of [A] (U{^T} then L{^T} sweeps) — no transposed
      matrix is built and no second factorization is run.  This is the
      adjoint-analysis primitive: the noise engine factors the forward
      AC system once per frequency and reuses it for the transposed
      solve. *)

  val det : t -> F.t
  (** [det lu] is the determinant of the factorized matrix. *)

  val dim : t -> int
  (** [dim lu] is the matrix dimension. *)
end

module Real : module type of Make (Field.Real)
(** Real-valued instantiation. *)

module Cplx : module type of Make (Field.Cplx)
(** Complex-valued instantiation. *)

type rfactor
(** A real factorization [P*A = L*U] held in flat row-major form — no
    per-row boxing, refillable in place for repeated factorizations of
    same-shape systems. *)

val factor_mat : Mat.t -> rfactor
(** [factor_mat a] factorizes a copy of [a] (one flat array copy).
    Raises {!Singular} / [Invalid_argument] as {!Make.decompose}. *)

val refactor_mat : rfactor -> Mat.t -> unit
(** [refactor_mat f a] refills [f] from [a], reusing both workspaces.
    Raises [Invalid_argument] on shape mismatch and {!Singular} as
    {!factor_mat} (the factor is then invalid until the next
    successful refill). *)

val solve_factored : rfactor -> Vec.t -> Vec.t
(** [solve_factored f b] solves [A x = b] from an existing factor. *)

val rdim : rfactor -> int
(** Matrix dimension of the factor. *)

val solve_mat : Mat.t -> Vec.t -> Vec.t
(** [solve_mat a b] solves the dense real system [A x = b] on the flat
    representation directly.
    Raises {!Singular} or [Invalid_argument] as {!Make.decompose}. *)

val invert_mat : Mat.t -> Mat.t
(** [invert_mat a] is the inverse of [a], column by column from a
    single factorization. *)
