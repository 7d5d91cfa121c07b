(** Fixed-width feature vectors for the learned latency surrogate.

    A vector is three concatenated blocks — machine descriptor, static
    op block, schedule encoding — so the same vector can be produced
    from a logged {!Sched_state.t} (collection time) or from an op and
    a candidate {!Schedule.t} (ranking time, without applying the
    candidate). Per-loop statistics reuse the shared {!Nest_stats}
    helpers (the observation's loop-info and footprint blocks) and the
    op block embeds the analytical cost model's own terms for the
    canonical nest, so the model learns the residual effect of the
    schedule rather than re-deriving the baseline. *)

val machine_dim : int

val op_dim : int

val schedule_dim : int

val dim : int
(** Total vector width = [machine_dim + op_dim + schedule_dim]. *)

val machine_block : Machine.t -> float array
(** Cache sizes, cores, SIMD, frequency, latencies, bandwidths —
    normalized; length [machine_dim]. *)

val schedule_block_into : float array -> Schedule.t -> unit
(** {!schedule_block} into a caller-owned buffer of length
    [schedule_dim] (cleared first) — the batched ranker encodes tens of
    thousands of schedules per search and reuses one buffer. *)

val schedule_block : Schedule.t -> float array
(** Per-dim tile/parallel sizes (last write wins), the final loop
    permutation implied by swaps/interchanges, im2col / vectorize /
    unroll flags and step count — computed from the schedule alone, no
    transformation is applied. Length [schedule_dim]. *)

val assemble :
  machine:float array -> op:float array -> sched:float array -> float array
(** Concatenate pre-computed blocks (validates widths). *)

type cache
(** A domain-safe op-block memo, keyed by {!Linalg.digest} (512
    entries). *)

val create_cache : unit -> cache

val cached_op_block : cache -> Linalg.t -> float array
(** Static features of the untransformed op: log-trip counts and
    iteration kinds, per-level footprints/reuse distances of the
    canonical nest, math-op mix, and cost-model priors (base seconds,
    compute cycles, per-level miss lines, measured on a fixed reference
    machine so the block is machine-independent and cacheable). Length
    [op_dim]. Computed once per op digest. *)
