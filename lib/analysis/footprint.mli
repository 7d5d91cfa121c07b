(** Per-loop-level data footprint and reuse distance.

    For each nesting depth [d] (0 = whole nest, [n_loops] = one body
    execution) the pass computes how many distinct buffer elements one
    execution of the subtree at that depth touches, with the outer
    iterators [0..d-1] pinned at an arbitrary value and the inner
    iterators [d..n-1] ranging over their trip counts. Each reference
    contributes the bounding box of its subscript intervals
    ({!Bounds.expr_interval} restricted to the varying iterators);
    references with structurally identical subscripts are deduplicated
    and the per-buffer total is capped at the buffer size, so the
    result is a sound over-approximation of the true distinct-element
    count (exact for the dense single-reference accesses produced by
    {!Lower}).

    The per-level footprints feed the surrogate's schedule features
    ({!Nest_stats.band_footprint_features}) and the CLI's [analyze]
    report; the test suite checks a working-set miss model built on them
    against a trace-driven cache simulator. *)

type buffer_footprint = { fb_buf : string; fb_elements : int }

type level = {
  depth : int;  (** iterators [depth..n-1] vary, [0..depth-1] pinned *)
  per_buffer : buffer_footprint list;  (** in buffer-declaration order *)
  elements : int;  (** total distinct elements touched at this depth *)
}

type t = {
  n_loops : int;
  levels : level array;  (** [n_loops + 1] entries, index = depth *)
}

val analyze : Loop_nest.t -> t

val level_elements : t -> int -> int
(** [level_elements t d] — total footprint at depth [d]; clamped to the
    valid range, so [d > n_loops] returns the body footprint. *)

val reuse_distance : t -> int -> int
(** [reuse_distance t d] — distinct elements touched between successive
    iterations of loop [d], i.e. the footprint of depth [d + 1]. Loop-
    carried reuse at depth [d] survives in a cache of at least this
    many elements. *)
