(** Action spaces: the paper's Hierarchical space and the flat Simple
    space used in the Figure 8 ablation.

    {b Hierarchical} (§4.1): an action is a tuple — first a
    transformation (tiling, parallelization, interchange, im2col,
    vectorization), then its parameters from per-transformation
    sub-spaces: one tile-size choice per loop out of the M-entry menu
    (Cartesian product over loops), or one of the N-1 adjacent-swap
    permutations. The whole space is the Cartesian product of these
    sub-spaces rather than a flat enumeration.

    {b Simple} (§5.4.2): a fixed flat menu of pre-combined
    transformations (uniform tilings/parallelizations at a few sizes,
    each adjacent swap, im2col, vectorize). *)

(* -- transformation indices of the hierarchical head (im2col is 3,
   vectorization 4) -- *)

val t_tile : int
val t_parallelize : int
val t_interchange : int

val transformation_label : int -> string

type hierarchical = {
  transform : int;  (** 0..4 *)
  tile_choices : int array;
  (** length [n_max]; menu index per loop — read when [transform] is
      tiling or parallelization *)
  swap_choice : int;  (** read when [transform] is interchange *)
}

type masks = {
  t_mask : bool array;  (** length 5 *)
  tile_mask : bool array array;  (** n_max x M, valid tile slots *)
  par_mask : bool array array;
  (** n_max x M: like [tile_mask] but reduction dims only admit slot 0
      (parallelizing a reduction would race on the accumulator) *)
  swap_mask : bool array;  (** length n_max; entry i = swap (i, i+1) ok *)
}

val masks : Env_config.t -> Sched_state.t -> masks
(** The paper's action mask (§3.1.1): parallelization at most once,
    vectorization always available (and terminal), im2col only on
    untransformed convolutions, tile slots restricted to divisors,
    padded loops restricted to "no tiling". *)

val to_transformation :
  Env_config.t ->
  Sched_state.t ->
  hierarchical ->
  Schedule.transformation option
(** Convert a sampled action to a schedule step. [None] when the action
    is a no-op (an all-zero tiling vector). Tile slot 0 of a point loop
    selects size 0 (no tiling); slots 1.. select the loop's largest
    divisors not exceeding [max_tile_size], in decreasing order, and a
    slot with no divisor left selects 0 — the paper's restriction of
    tile sizes to divisors of the loop bounds. Raises [Invalid_argument]
    on an out-of-range transformation index. *)

val cardinality : Env_config.t -> n_loops:int -> float
(** Size of the flat action space the hierarchical product replaces:
    M^n + M^n + n! + 2 (§3.1), as a float since it overflows quickly. *)

(* -- the simple (flat) space of the ablation -- *)

type simple_item = { label : string; transformation : Schedule.transformation }

val simple_menu : Env_config.t -> n_loops:int -> simple_item array
(** The fixed menu for ops with [n_loops] iteration dims: uniform
    tilings and parallelizations at sizes 16/32/64 (per-loop sizes are
    zeroed where they do not divide), each adjacent swap, im2col,
    vectorize. *)

(* -- static legality context -- *)

type legality_ctx
(** Dependence-analysis verdicts for one [Sched_state.t] nest, plus the
    point-band offset translating point-loop indices to absolute loop
    positions. Verdicts are computed on first ask and memoized
    ({!Legality.t}), so a step's mask and {!legalize} sharing one context
    pay for each verdict once; like the [Legality.t] inside, a context
    belongs to one domain. Recompute after every transformation —
    verdicts describe one specific nest. *)

val legality_of : Env_config.t -> Sched_state.t -> legality_ctx option
(** [None] when [cfg.static_legality] is off — all static checks then
    default to permissive, leaving only the paper's syntactic masks. *)

val simple_mask :
  ?ctx:legality_ctx -> Sched_state.t -> simple_item array -> bool array
(** Which menu entries are currently legal: the syntactic conditions,
    intersected (with [ctx]) with the dependence-analysis verdicts
    ({!Legality}). Pass the [legality_of] context that the same step's
    {!legalize} gets, so one analysis serves both. *)

val legalize :
  ?ctx:legality_ctx ->
  Sched_state.t ->
  Schedule.transformation ->
  Schedule.transformation option
(** Fix up a menu transformation for the current state: tile sizes that
    do not divide their loop's trip count are zeroed; parallel sizes
    additionally zeroed on reduction dims and (with [ctx]) on loops the
    dependence analysis cannot prove parallel; [None] when nothing
    remains, a swap index is out of range, or the static verdict rejects
    the transformation outright. *)
