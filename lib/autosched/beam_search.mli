(** Beam-search auto-scheduler.

    A cost-model-guided tree search in the style of the Halide and
    Tiramisu auto-schedulers the paper discusses (§2.2): states are
    partial schedules, actions are single transformations (one or two
    loops tiled per step, one adjacent swap, parallelization, im2col,
    vectorization), and each state is scored by the timing oracle with
    vectorization virtually appended. Complements the exhaustive
    baseline (§5.1.4) with a much smaller exploration budget. *)

type config = {
  beam_width : int;
  max_depth : int;  (** schedule length bound (the env's tau) *)
}

val default_config : config
(** Width 8, depth 7. Every search considers the 3 largest tile sizes
    up to 128 per loop and at most 24 parallel combos per state. *)

type result = {
  best_schedule : Schedule.t;
  best_speedup : float;
  explored : int;  (** states evaluated by the oracle *)
}

val search :
  ?config:config ->
  ?jobs:int ->
  ?pool:Util.Domain_pool.t ->
  Evaluator.t ->
  Linalg.t ->
  result
(** Deterministic for a given op and config. The returned schedule
    always ends with vectorization and applies cleanly.

    Each depth runs expansion and exact scoring as tasks — scoring on
    {!Evaluator.fork}s with noise streams derived from a global
    scored-state index (the root is scored on [evaluator] itself) — while
    dedup, ranking and beam selection merge results on the calling
    domain in expansion order. [jobs] (default 1; [Invalid_argument]
    below 1) only picks where the tasks run: inline for [jobs = 1],
    otherwise on a work-stealing pool of [jobs] OCaml domains; a
    caller-owned [pool] is always used when given. Results are
    byte-identical across all [jobs] values for any evaluator,
    including one with [noise > 0]. *)
