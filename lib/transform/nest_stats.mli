(** Shared per-level loop statistics.

    The normalized per-loop numbers used by both the RL observation
    ({!Observation} in lib/core) and the learned-surrogate feature
    extractor ([Surrogate.Features]): log-scaled trip counts of the
    point band and the per-level footprint / reuse-distance pair from
    {!Footprint}. Keeping the normalizations here means every consumer
    produces bit-identical values for the same nest. *)

val log2 : float -> float

val log2_trip_norm : int -> float
(** [log2(max 1 trip) / 16] — the loop-info normalization (trips up to
    2^16 map into [0, 1]). *)

val trip_features : n_max:int -> Sched_state.t -> float array
(** Trip counts of the state's point band, log-scaled, in an [n_max]
    array (extra loops beyond [n_max] are dropped, missing ones are
    zero). *)

val band_footprint_features : n_max:int -> Loop_nest.t -> float array
(** A [2 * n_max] array: slot [j] the log-scaled footprint of one
    execution of the subtree under point loop [j], slot [n_max + j] the
    reuse distance carried by that loop ({!Footprint.analyze} over the
    current nest, aligned to the point band). *)
