(** Feature extraction: schedule state -> representation vector.

    Implements the paper's Figure 1 pipeline and Table 1 layout. The
    observation concatenates, in order:

    + {b loop information} (N values): log2 trip count of each point-band
      loop in the current order, scaled by 1/16, zero-padded;
    + {b load access matrices} (L x D x (N+1)): one access matrix per
      input operand (Figure 2), rows = array dims, columns = coefficients
      of the point loops in current order plus the constant, scaled 1/4;
    + {b store access matrix} (D x (N+1)): same for the output;
    + {b math op counts} (6): add, sub, mul, div, exp, log, scaled 1/4;
    + {b history of optimizations} (N x 3 x tau): per point loop, rows
      are tiling / parallelization / interchange; tile sizes enter as
      log2(size)/8, interchange as (index+1)/N (paper §3.2). *)

val extract : Env_config.t -> Sched_state.t -> float array
(** Raises [Invalid_argument] when the op exceeds the configured N, D or
    L bounds. Length is always {!Env_config.obs_dim}. *)

val loop_info : Env_config.t -> Sched_state.t -> float array
(** First component only (for tests). *)

val access_matrix :
  Env_config.t -> Sched_state.t -> Linalg.operand -> float array
(** One flattened D x (N+1) matrix (for tests), columns ordered by the
    current point-band loop order. *)
