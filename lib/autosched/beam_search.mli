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
  sizes_per_loop : int;  (** divisor options considered per loop *)
  max_parallel_combos : int;
  max_tile_size : int;
}

val default_config : config
(** width 8, depth 7, 3 sizes/loop, 24 parallel combos, tiles <= 128. *)

type result = {
  best_schedule : Schedule.t;
  best_speedup : float;
  explored : int;  (** states evaluated by the oracle *)
}

val default_rerank_k : int
(** Per-depth exact-scoring budget of the staged mode (32). *)

val search :
  ?config:config ->
  ?ranker:(Sched_state.t array -> float array) ->
  ?rerank_k:int ->
  ?jobs:int ->
  ?pool:Util.Domain_pool.t ->
  Evaluator.t ->
  Linalg.t ->
  result
(** Deterministic for a given op and config. The returned schedule
    always ends with vectorization and applies cleanly.

    With [ranker] (predicted log-seconds per state, positionally;
    lower = faster) the search runs staged: at each depth the
    deduplicated children are ranked by the surrogate in one batched
    call — no cost-model call, no transformation applied — and only
    the [rerank_k] best proceed to exact scoring and beam selection.
    [explored] counts exact scorings only. Without [ranker], behavior
    is byte-identical to the exact search.

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
