(** Stepwise schedule application.

    The environment applies one transformation per RL step; this module
    holds the evolving (op, loop nest) pair plus the bookkeeping the
    paper's action mask needs: whether parallelization was used (allowed
    once), whether the schedule was vectorized (terminal action) and the
    im2col packing cost. *)

type t = {
  original : Linalg.t;  (** the untransformed operation *)
  op : Linalg.t;  (** current op — replaced by a GEMM after im2col *)
  nest : Loop_nest.t;  (** current transformed loop nest *)
  applied : Schedule.t;  (** transformations so far, in order *)
  packing_elements : int;  (** elements materialized by im2col, else 0 *)
  parallelized : bool;
  vectorized : bool;
}

val init : Linalg.t -> t
(** Start a schedule on an op; lowers it to its canonical nest. *)

val digest : t -> string
(** [Loop_nest.digest state.nest], computed on demand in O(nest size).
    {!apply} hashes nothing: only a state that asks pays for its
    digest — the surrogate's dataset log and the sanitizer's pair dedup
    key by it. *)

val n_point_loops : t -> int
(** Loop count of the current op — the arity that [Tile]/[Parallelize]
    sizes and [Interchange] permutations must have. *)

val point_trip_counts : t -> int array
(** Trip counts of the current point band, one per op dim in the current
    order. *)

val can_tile : t -> bool
val can_interchange : t -> bool

val can_parallelize : t -> bool
(** False once parallelization was used (§3.1.1) or after vectorize. *)

val can_vectorize : t -> bool
(** Vectorization ends the schedule, so it is allowed at most once. *)

val parallelizable_loop : t -> int -> bool
(** [parallelizable_loop state l] is true when point loop [l] iterates a
    parallel (non-reduction) op dim, so a parallel tile size is legal
    there — parallelizing a reduction would race on the accumulator. *)

val can_im2col : t -> bool
(** Only convolutions, and only before any other transformation (the
    rewrite replaces the whole nest). *)

val is_done : t -> bool
(** True after vectorization — the paper's implicit stop action. *)

val apply : t -> Schedule.transformation -> (t, string) result
(** Apply one transformation, enforcing the masking rules above and the
    structural validity of parameters (divisor tile sizes, in-range swap
    indices, valid permutations). With certification enabled (below),
    every accepted transformation is additionally re-proved after the
    fact and a failed proof raises [Failure]. *)

val set_certify : bool -> unit
(** Toggle post-transform legality certificates: the transformed nest
    must validate, iteration volume and buffer declarations must be
    preserved, and the transformation must pass the static
    dependence-analysis verdict ({!Legality}) on the nest it transformed.
    Certification is strict — conservative analysis failures raise even
    for transformations that happen to preserve semantics. Defaults to
    the MLIR_RL_CERTIFY environment variable (1/true/yes). *)

val certify_enabled : unit -> bool

val apply_all : Linalg.t -> Schedule.t -> (t, string) result
(** Fold {!apply} over a whole schedule from {!init}. *)

val valid_tile_sizes : t -> menu:int array -> bool array array
(** [valid_tile_sizes state ~menu] is a matrix of shape
    (n_point_loops, Array.length menu): entry (l, m) says whether
    [menu.(m)] is 0 (always allowed) or divides the trip count of point
    loop [l]. *)
