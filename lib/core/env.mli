(** The RL environment: Linalg op optimization as an episodic MDP.

    An episode starts from an untransformed op ({!reset}); each {!step}
    applies one transformation; the episode ends when the agent
    vectorizes (the paper's implicit stop action), when the schedule
    reaches tau steps, or when a measurement exceeds the adaptive
    timeout. Rewards are log speedups (§3.3): with [Immediate] reward the
    improvement of each step is measured and returned immediately; with
    [Final] reward all steps return 0 and the terminal step returns the
    log of the whole schedule's speedup.

    Failure handling is typed, not exceptional: stepping a finished
    episode, an IR-rejected transformation, or a measurement that had to
    degrade to the cost model all surface as {!Env_error.t} values in
    the {!step_result}, so a long training run survives every failure
    mode the backend can produce. *)

type t

type step_result = {
  obs : float array;
  reward : float;
  terminal : bool;
  timed_out : bool;  (** measurement exceeded the adaptive timeout *)
  noop : bool;  (** the action was an all-zero tiling (no effect) *)
  invalid : bool;  (** the transformation was rejected by the IR layer *)
  degraded : bool;
      (** the measurement backend failed and the reward was computed
          from the cost-model estimate (robust evaluator only) *)
  error : Env_error.t option;
      (** the typed error behind [invalid] / [degraded] / stepping a
          finished episode; [None] on the happy path *)
}

val create : ?evaluator:Evaluator.t -> ?robust:Robust_evaluator.t -> Env_config.t -> t
(** The evaluator defaults to one on [config.machine]. Passing [robust]
    routes every measurement through the retrying robust evaluator (its
    underlying evaluator is used for baselines); [evaluator] is then
    ignored. *)

val fork : t -> t
(** A worker-local copy for parallel rollouts: the measurement stack is
    forked ({!Evaluator.fork} / {!Robust_evaluator.fork} — the base-time
    cache is shared and domain-safe, noise/fault streams and counters
    are per-fork), episode state and accounting start fresh. The caller
    seeds the fork's streams per episode and merges
    {!episode_measurement_seconds} / {!episode_degraded} and the
    evaluator counters back in deterministic order. *)

val config : t -> Env_config.t
val evaluator : t -> Evaluator.t

val robust : t -> Robust_evaluator.t option
(** The resilience layer, when one was attached at {!create}. *)

val reset : t -> Linalg.t -> float array
(** Start an episode on an op; returns the initial observation. Resets
    the per-episode measurement and degradation accounting. *)

val state : t -> Sched_state.t
(** Current schedule state (for inspection and masking). Raises
    {!Env_error.Error} [No_episode] before the first {!reset}. *)

val masks : t -> Action_space.masks
(** Masks for the hierarchical policy at the current state. *)

val step : t -> Schedule.transformation option -> step_result
(** Apply one transformation ([None] is an explicit no-op that still
    consumes a step). Invalid transformations (rejected by the transform
    layer) consume a step and yield the timeout penalty with
    [error = Some (Invalid_action reason)], mirroring the paper's
    treatment of failing compilations. Stepping after the episode ended
    returns a terminal result with [error = Some Episode_over] instead
    of raising. Raises {!Env_error.Error} [No_episode] only when called
    before any {!reset}. *)

val step_hierarchical : t -> Action_space.hierarchical -> step_result
(** Convert a hierarchical action and step. *)

val current_speedup : t -> float
(** Speedup of the schedule built so far (1.0 right after reset). *)

val schedule : t -> Schedule.t

val measurement_seconds : t -> float
(** Accumulated simulated compile+measure wall-clock spent in this
    environment since creation — the paper's Figure 7 training-time
    axis. Each measurement charges [config.compile_seconds] plus the
    measured execution time (for the robust evaluator: all repeats,
    capped hangs and backoff pauses). *)

val episode_measurement_seconds : t -> float
(** Same accounting, but only since the last {!reset}. *)

val degraded_measurements : t -> int
(** Total measurements that fell back to the cost model since creation. *)

val episode_degraded : t -> int
(** Degraded measurements since the last {!reset}. *)

val restore_accounting :
  t -> measurement_seconds:float -> degraded:int -> unit
(** Overwrite the cumulative counters (checkpoint resume). *)

val render : t -> string
(** Human-readable snapshot of the episode: op, schedule so far, step
    count, current estimated time and speedup. For debugging and the
    CLI. *)
