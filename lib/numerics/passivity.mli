(** Passivity / realizability certificates for admittance-like
    matrices.

    A grounded RC pool, a Schur-complement port conductance matrix and
    a PRIMA-projected (Ĝ, Ĉ) pencil are all passive iff their symmetric
    parts are positive semidefinite.  {!psd} measures the PSD defect by
    LDLᵀ (no eigensolve); {!certify} turns a passing check into a
    {e signed certificate} — a content-bound digest that lets a cached
    artifact be re-verified later by hashing alone, without
    refactorizing and, crucially, without re-running the extraction
    that produced it.

    Signatures are content MACs, not cryptography: they bind the
    matrix bytes, the measured defect and a caller-supplied context
    string (e.g. the cache key) under a versioned domain tag, so a
    corrupted file, a truncated matrix or a verdict pasted onto a
    different artifact all fail verification. *)

type verdict = {
  defect : float;  (** most negative LDLᵀ pivot of the symmetric part
                       (0 when PSD) *)
  index : int;  (** elimination index of the worst pivot *)
  scale : float;  (** largest absolute entry, for relative judgement *)
  tol : float;  (** round-off allowance the verdict was judged at *)
}

val psd : Mat.t -> verdict
(** Factor the symmetric part and measure its PSD defect.  The
    tolerance scales with the matrix magnitude and dimension, so
    legitimate round-off from congruence projections and Schur
    complements passes while genuine indefiniteness does not. *)

val passes : verdict -> bool
(** [defect >= -. tol]. *)

type cert = {
  cert_dim : int;
  cert_defect : float;  (** the measured (passing) defect *)
  cert_sig : string;  (** hex digest binding matrix + verdict + context *)
}

val certify : ?context:string -> Mat.t -> cert option
(** [certify ?context m] is [Some cert] when [m] passes {!psd}, [None]
    otherwise — a non-passive matrix never gets a certificate. *)

val verify : ?context:string -> Mat.t -> cert -> bool
(** [verify ?context m cert] recomputes the signature from [m]'s bytes
    and the stored verdict and compares — O(dim²) hashing, no
    factorization.  [false] on any mismatch (content, dimension,
    context or tampered verdict). *)
