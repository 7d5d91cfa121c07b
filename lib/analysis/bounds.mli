(** Interval analysis over affine index maps.

    Proves every access of every buffer in-range over the nest's box
    domain, using the same per-coefficient-sign corner arithmetic as
    {!Loop_nest.validate} — but where [validate] stops at the first
    problem with a formatted string, this pass visits every reference
    and returns typed per-access violations (buffer, dimension, the
    computed subscript interval, the declared extent), so callers such
    as {!Nest_lint} and the post-transform {!Verifier} can report all
    out-of-bounds accesses introduced by a broken tile/pad/interchange
    rather than just the first.

    On the box domain [0, ub) the corner bound is exact, not an
    over-approximation: an access is reported out-of-bounds iff some
    iteration really indexes outside the buffer. *)

type interval = { lo : int; hi : int }
(** An inclusive integer interval [lo, hi]. *)

val expr_interval :
  ?vary:bool array -> trip_counts:int array -> Affine.expr -> interval
(** [expr_interval ~trip_counts e] is the exact range of [e] over the
    box [0, trip_counts.(i)) per iterator. With [vary], iterators [i]
    with [vary.(i) = false] are pinned (contribute nothing beyond the
    constant — the returned interval is then the range of [e] relative
    to any fixed assignment of the pinned iterators, used by
    {!Footprint} for per-level extents). Raises [Invalid_argument] if
    arities disagree. *)

type violation = {
  v_buf : string;  (** buffer being accessed *)
  v_dim : int;  (** which dimension of the subscript *)
  v_range : interval;  (** computed subscript range over the domain *)
  v_extent : int;  (** declared extent of that dimension *)
  v_is_store : bool;  (** store or load *)
}

type report = {
  checked : int;  (** memory references examined *)
  violations : violation list;  (** out-of-bounds accesses, in body order *)
  structural : string list;
      (** references that could not be bounds-checked at all: undeclared
          buffer, rank mismatch, or subscript-arity mismatch *)
}

val analyze : Loop_nest.t -> report
(** Bounds-check every store and load of the nest. *)

val check : Loop_nest.t -> (unit, string) result
(** [analyze] folded to a result; the error message lists the first
    violation (or structural problem) in the same style as
    {!Loop_nest.validate}. *)

val violation_to_string : violation -> string
