(** The baseline exhaustive auto-scheduler (paper §5.1.4).

    Enumerates schedules of the shape
    [im2col?; parallelize?; tile; interchange?; vectorize] under the
    paper's constraints — tile sizes at most 64, at least two tiled
    loops — evaluates each with the timing oracle and keeps the best.
    The exploration trace (best speedup after each evaluated schedule)
    feeds the Figure 6 search-efficiency comparison. *)

type config = {
  tile_sizes : int list;
  (** candidate sizes; [\[\]] (the default) derives each loop's options
      from its divisors, capped at 64 per the paper *)
  min_tiled_loops : int;  (** paper: 2 *)
  par_loops_considered : int;
  (** how many leading non-trivial loops are eligible for parallel
      tiling *)
  include_interchange : bool;
  include_im2col : bool;
  max_schedules : int;  (** evaluation budget *)
}

val default_config : config
(** divisor-derived sizes <= 64 (four largest per loop), min 2 tiled
    loops, 3 parallel loops, interchange and im2col on, budget 3000.
    When the space exceeds the budget, {!search} switches from full
    enumeration to seeded random sampling without replacement. *)

type result = {
  best_schedule : Schedule.t;
  best_speedup : float;
  explored : int;  (** schedules actually evaluated *)
  trace : (int * float) array;
  (** (schedules evaluated so far, best speedup so far) — one point per
      evaluation *)
}

val candidates : config -> Linalg.t -> Schedule.t Seq.t
(** The deterministic candidate stream for an op, before the budget
    cap. Exposed for tests. *)

val space_total : config -> Linalg.t -> int
(** The enumeration-size estimate {!search} compares against
    [max_schedules] to pick full enumeration over budgeted sampling: an
    upper bound on the length of {!candidates} (the per-space product
    ignores the min-tiled filter). Exposed so tests and benches can
    pin which branch a given op and budget exercise. *)

val sampling_seed : Linalg.t -> int
(** Seed of the budgeted-sampling RNG, derived from {!Linalg.digest}
    (name, dims, iter kinds) — not just [op_name], so same-named ops
    with different shapes draw decorrelated candidate streams. Exposed
    so the determinism tests can pin the derivation. *)

val search :
  ?config:config ->
  ?jobs:int ->
  ?pool:Util.Domain_pool.t ->
  Evaluator.t ->
  Linalg.t ->
  result
(** Run the search. Candidates whose application fails are skipped
    without consuming budget. Always explores at least the trivial
    [vectorize] schedule, so [best_speedup] is well-defined.

    When the space fits the budget, the exhaustive enumeration runs as
    a prefix-sharing DFS: each transformation is applied once per
    distinct schedule prefix instead of once per candidate containing
    it. Every candidate is a distinct schedule, priced once, on an
    evaluator fork (the trivial schedule is priced on [evaluator]
    itself). With a noiseless evaluator, results (best schedule,
    speedup, explored, trace) are bit-identical to {!search_naive} —
    the differential property suite asserts it.

    The decision trie splits at a fixed depth (the parallel combo plus
    the leading two loops' tile choices) into independent subtrie
    tasks; the sampled fallback keeps its draws sequential and
    evaluates them in chunks. Both regimes start candidates from shared
    heads: a candidate's head (its im2col prefix, if any, and its
    Parallelize step) is applied once per search, on the calling
    domain, and each candidate applies only its remaining tile, swap
    and vectorize steps to the head's immutable state — the same
    {!Sched_state.apply} calls, in the same order, as applying it from
    scratch. Each task evaluates on an
    {!Evaluator.fork} whose noise stream is derived from the task's
    position in the enumeration, sharing the evaluator's base-time
    cache, and results merge back in enumeration order. [jobs]
    (default 1; [Invalid_argument] below 1) only picks where the tasks
    run: inline on the calling domain for [jobs = 1], otherwise on a
    private work-stealing pool of [jobs] OCaml domains, created and
    torn down around the call; a caller-owned [pool] is always used
    when given. Consequently results are BYTE-IDENTICAL across all
    [jobs] values, for any evaluator — including one with
    [noise > 0]. *)

val search_naive : ?config:config -> Evaluator.t -> Linalg.t -> result
(** Reference implementation: re-applies every candidate from scratch
    with {!Sched_state.apply_all} (no prefix sharing), evaluating one
    candidate after another on [evaluator] itself. It shares only the
    candidate stream and the result bookkeeping with {!search}. Under
    noise it draws jitter from the evaluator's own stream, so it makes
    the same number of draws as {!search} but not the same values.
    The differential tests and the evalcache bench compare {!search}
    against it. *)

val default_rerank_k : int
(** Exact re-evaluation budget of {!search_staged} (64). *)

val gather_candidates : config -> Linalg.t -> Schedule.t list
(** The budgeted candidate set {!search_staged} ranks: the full
    enumeration when the space fits [max_schedules], otherwise the same
    seeded sampling-without-replacement stream {!search} falls back to
    (collected instead of evaluated). Exposed for tests and data
    collection. *)

val search_staged :
  ?config:config ->
  ?ranker:(Schedule.t array -> float array) ->
  ?rerank_k:int ->
  ?jobs:int ->
  ?pool:Util.Domain_pool.t ->
  Evaluator.t ->
  Linalg.t ->
  result
(** Two-stage search: [ranker] (predicted log-seconds per candidate,
    positionally; lower = faster) scores the whole budgeted candidate
    set in one batched call — no transformation is applied — then only
    the [rerank_k] best-ranked candidates are evaluated exactly. Ties
    rank in enumeration order, so the stage is deterministic. The
    trivial vectorize schedule is always evaluated exactly, and
    [explored]/[trace] count exact evaluations only.

    [jobs]/[pool] follow {!search}'s contract: ranking stays one
    batched call on the calling domain, and the [rerank_k] exact
    evaluations run as tasks on derived-stream forks, merged in rank
    order — byte-identical across all [jobs] values for any
    evaluator.

    Without [ranker] this is {!search} — byte-identical results, the
    guaranteed fallback when no surrogate checkpoint is available. *)
