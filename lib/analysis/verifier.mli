(** Post-transform schedule verifier.

    A cheap structural check run after every accepted transformation
    (wired into [Sched_state.apply] behind the [MLIR_RL_VERIFY]
    environment variable / {!set_enabled}): the transformed nest must
    pass {!Loop_nest.validate} and every access must be provably
    in-bounds ({!Bounds}). A caller that carries a digest for the nest
    can also have it checked against a from-scratch {!Loop_nest.digest}
    ([Sched_state] hashes on demand, so it passes none). A failure means
    a transformation produced a malformed nest — it raises {!Violation}
    so the bug surfaces at the transformation that introduced it, not as
    silent garbage downstream.

    The enable flag and the check/violation counters are process-global
    and domain-safe, mirroring the legality-certificate toggle: parallel
    rollout workers share them. The counters are lock-free atomics,
    registered on {!Util.Metrics.global} as [verify_checks_total] and
    [verify_violations_total], so the CLI's [metrics:] line and the
    serve [stats]/[metrics] replies report them. *)

exception Violation of string

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Defaults to the [MLIR_RL_VERIFY] environment variable
    ("1"/"true"/"yes"). *)

val check : ?expected_digest:string -> Loop_nest.t -> (unit, string) result
(** Run the three-stage check without touching counters or raising:
    validate, bounds soundness, and (when [expected_digest] is given)
    digest consistency. *)

val run : ?expected_digest:string -> Loop_nest.t -> unit
(** Counted variant: increments [verify_checks_total], and on failure
    increments [verify_violations_total] and raises {!Violation}. *)
