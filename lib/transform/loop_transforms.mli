(** Loop-level transformations on perfect nests.

    A nest is organized in bands: the suffix of the loop array created by
    the most recent tiling is the {e point band} — the loops of the
    residual (inner) operation, one per original iteration dim. All
    transformations target the point band, mirroring how MLIR's transform
    dialect chains apply to the op produced by the previous step. *)

val divisors : int -> int list
(** Positive divisors of [n] in increasing order, e.g.
    [divisors 12 = \[1; 2; 3; 4; 6; 12\]]. Raises [Invalid_argument] for
    [n <= 0]. *)

val point_band_start : Loop_nest.t -> int
(** Position of the first point-band loop. The point band is recognized
    as the maximal suffix of loops whose [origin]s are pairwise distinct
    and cover each origin's innermost occurrence. For a freshly lowered
    nest this is 0. *)

val point_band : Loop_nest.t -> Loop_nest.loop array
(** The point-band loops, outermost first. *)

type column_map = { src : int array; factor : int array }
(** How a transformation rewrites subscripts: column [j] of a new
    subscript is [factor.(j)] times column [src.(j)] of the old one.
    Tiling and swapping are such maps, and each keeps every old column
    in some new column with factor 1, so distinct subscripts stay
    distinct. *)

val compose : column_map -> column_map -> column_map
(** [compose first second] is [first], then [second]:
    [src'.(j) = first.src.(second.src.(j))] and
    [factor'.(j) = second.factor.(j) * first.factor.(second.src.(j))]. *)

val tile_plan :
  ?parallel:bool ->
  int array ->
  Loop_nest.loop array ->
  (Loop_nest.loop array * column_map, string) result
(** The loops {!tile} produces and its column map, without touching a
    body; the same errors. *)

val tile :
  ?parallel:bool -> int array -> Loop_nest.t -> (Loop_nest.t, string) result
(** [tile sizes nest] splits each point-band loop [i] with
    [sizes.(i) > 0] into an outer tile loop of trip [ub/sizes.(i)] and an
    inner point loop of trip [sizes.(i)]. The new tile loops form a band
    placed immediately outside the point band, preserving relative order.
    With [~parallel:true] the created tile loops are marked parallel
    (the paper's parallelization action, i.e. [tile_using_forall]).

    Errors when [sizes] has the wrong arity, when a non-zero size does
    not divide its loop's trip count, or when no size is positive. *)

val interchange : int array -> Loop_nest.t -> (Loop_nest.t, string) result
(** [interchange perm nest] permutes the point band: new point position
    [i] receives the loop previously at point position [perm.(i)].
    Errors when [perm] is not a permutation of the point band. *)

val swap_plan :
  int -> Loop_nest.loop array -> (Loop_nest.loop array * column_map, string) result
(** The loops {!swap_adjacent} produces and its column map; the same
    errors. *)

val swap_adjacent : int -> Loop_nest.t -> (Loop_nest.t, string) result
(** [swap_adjacent i nest] exchanges point loops [i] and [i+1] — the
    paper's consecutive-permutation interchange parameterization. A
    subscript whose two coefficients are equal is kept as it is. *)

val vectorize_loops :
  Loop_nest.loop array -> (Loop_nest.loop array, string) result
(** The loops {!vectorize} produces; the same errors. *)

val vectorize : Loop_nest.t -> (Loop_nest.t, string) result
(** Mark the innermost loop as a vector loop. Errors when the nest has no
    loops or is already vectorized. *)

val unroll : int -> Loop_nest.t -> (Loop_nest.t, string) result
(** [unroll factor nest] unrolls the innermost loop by [factor]: its trip
    count divides by [factor] and the body is replicated with shifted
    subscripts. The paper lists unrolling as future work (§6.1); it is
    implemented here as an extension and is not part of the default
    action space. Errors when the factor does not divide the innermost
    trip count or the nest is already vectorized (MLIR unrolls before
    vectorizing, not after). *)
