(** Analytical performance model.

    Substitutes for the paper's real executions on the Xeon testbed. The
    model prices a transformed loop nest by combining:

    - a locality analysis per memory reference: distinct cache lines
      touched (bounding-box extents with spatial merging in the last
      array dimension) multiplied by re-streaming factors for outer loops
      the reference does not depend on, whenever the inner working set
      exceeds a cache level — this is what rewards tiling and
      interchange;
    - an issue model per innermost iteration (FP throughput, load/store
      ports, SIMD lanes with a contiguity check, and the loop-carried
      reduction dependence chain) — this is what rewards vectorization
      and penalizes reductions left innermost without SIMD;
    - parallel scaling with load imbalance, fork/join launch overhead and
      a shared-bandwidth ceiling — this is what rewards (and bounds)
      parallelization;
    - a streamed packing charge for im2col.

    The output is deterministic, which stands in for the paper's median
    of repeated timings. *)

type level_traffic = {
  level : string;  (** "l1", "l2", "l3", "mem" *)
  miss_lines : float;  (** lines fetched into this level *)
  cycles : float;  (** single-thread cycles charged for them *)
}

type report = {
  seconds : float;  (** end-to-end estimated execution time *)
  compute_cycles : float;  (** single-thread issue/dependence cycles *)
  traffic : level_traffic list;
  parallel_factor : float;  (** effective speedup applied to core work *)
  launches : int;  (** number of parallel-region forks *)
  packing_seconds : float;  (** im2col column-matrix materialization *)
  vectorized : bool;
  vector_efficiency : float;  (** 0 when not vectorized *)
}

val estimate :
  machine:Machine.t ->
  iter_kinds:Linalg.iter_kind array ->
  ?packing_elements:int ->
  Loop_nest.t ->
  report
(** [estimate ~machine ~iter_kinds nest] prices one execution of [nest].
    [iter_kinds] gives the parallel/reduction kind of each original
    iteration dim, indexed by the loops' [origin] fields. *)

val seconds :
  machine:Machine.t ->
  iter_kinds:Linalg.iter_kind array ->
  ?packing_elements:int ->
  Loop_nest.t ->
  float
(** [seconds] is [(estimate ...).seconds]. *)

type walk
(** One walk of a nest's body: its reference groups in first-occurrence
    order, each reference's group and whether the body stores into its
    buffer, its flops and memory operations. Read-only once built, so
    one walk may be priced from several domains at once. *)

val walk : Loop_nest.t -> walk

val seconds_walked :
  machine:Machine.t ->
  iter_kinds:Linalg.iter_kind array ->
  packing_elements:int ->
  walk ->
  Loop_nest.loop array ->
  Loop_transforms.column_map option ->
  float
(** [seconds_walked ~machine ~iter_kinds ~packing_elements (walk nest)
    loops map] is [seconds] of the nest whose loops are [loops] and
    whose subscripts are [nest]'s rewritten through [map] ([None]: as
    they are), without building that nest. [map] must keep distinct
    subscripts distinct and constants as they are, as
    {!Loop_transforms.tile_plan} and {!Loop_transforms.swap_plan} do. *)
