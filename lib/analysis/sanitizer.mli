(** Differential schedule sanitizer.

    Runs the reference interpreter on an original nest and on its
    transformed counterpart over identical seeded pseudo-random inputs
    and compares the outputs element-wise (relative tolerance, since
    tiling and unrolling reassociate floating-point reductions). A
    mismatch is the strongest possible evidence of a miscompile: the
    transformation changed what the program computes.

    Interpretation is exact but slow, so every check is budgeted by
    total iteration count (big nests are skipped, and counted as
    skips), and callers deduplicate by digest pair via {!fresh_pair} so
    a memoized search doesn't re-execute the same (original,
    transformed) comparison thousands of times. Enablement, the budget
    and all counters are process-global and domain-safe; the
    [MLIR_RL_SANITIZE] environment variable sets the default
    enablement. The counters are lock-free atomics,
    registered on {!Util.Metrics.global} as [sanitize_runs_total],
    [sanitize_skips_total] and [sanitize_violations_total].

    Violations are {e counted}, not raised — the sanitizer is a
    monitoring layer (surfaced in the CLI's [metrics:] line and the
    serve [stats]/[metrics] replies); the {!Verifier} is the fail-stop
    layer. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Defaults to the [MLIR_RL_SANITIZE] environment variable
    ("1"/"true"/"yes"). *)

val budget : unit -> int
val set_budget : int -> unit
(** Maximum summed iteration count (reference + candidate) a single
    differential run may execute; larger pairs are skipped. Defaults to
    300_000. *)

type outcome =
  | Matched  (** outputs agree within tolerance *)
  | Skipped of string  (** not executed (over budget, uninterpretable) *)
  | Mismatch of string  (** differential violation — includes evidence *)

val fresh_pair : reference:string -> candidate:string -> bool
(** Global dedup registry keyed by digest pair: true exactly once per
    (reference, candidate) pair per process, so hot search loops
    sanitize each distinct transformation once. *)

val seeded_inputs : Loop_nest.t -> (string * float array) list
(** Deterministic pseudo-random fills for the nest's input buffers
    (loaded but never stored), keyed by the nest digest and buffer
    name; values in [0.25, 1.25] so divisions and logs stay
    well-conditioned. *)

val run_pair :
  reference:Loop_nest.t ->
  ref_inputs:(string * float array) list ->
  candidate:Loop_nest.t ->
  cand_inputs:(string * float array) list ->
  outcome
(** The counted differential core: budget check, interpret both nests,
    compare the output buffers flat (they may be shaped differently —
    im2col's GEMM output is the conv output reshaped). Updates the
    global counters. Outputs match within a relative tolerance of
    1e-6. *)

val skip : string -> outcome
(** Record a counted skip without executing anything — for callers that
    decide a pair is uncheckable before reaching {!run_pair}. *)

val check : reference:Loop_nest.t -> candidate:Loop_nest.t -> outcome
(** [run_pair] over shared {!seeded_inputs} of the reference — the
    common case where the transformation preserved buffer names. *)
