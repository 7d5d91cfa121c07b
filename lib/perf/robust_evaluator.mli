(** Paper-style robust measurement on top of a flaky backend.

    The paper measures real execution times: every reported number is
    the aggregate of repeated runs, failed runs are retried, and a
    schedule whose measurement cannot be completed still needs a price.
    This module implements that discipline over {!Evaluator}, with an
    optional {!Faults} injector standing in for the unreliable world:

    - {b adaptive repeats}: measure at least [min_repeats] times and
      keep sampling (up to [max_repeats]) until the relative standard
      deviation drops below [stability_rsd], then take the median;
    - {b bounded retries}: transient failures (timeouts, compile
      failures, hangs, crashes) are retried up to [max_retries] times
      with exponential backoff, every pause charged to the simulated
      measurement clock;
    - {b graceful degradation}: when retries are exhausted the result
      falls back to the pure cost-model estimate and is flagged
      [Degraded] so the training loop can track how much of its signal
      was synthetic. *)

type config = {
  min_repeats : int;  (** samples required before aggregating *)
  max_repeats : int;  (** hard cap on samples per measurement *)
  stability_rsd : float;
      (** stop sampling once stddev/mean falls below this *)
  max_retries : int;  (** failure retries per measurement *)
  backoff_base : float;  (** seconds charged for the first retry pause *)
  backoff_factor : float;  (** exponential backoff multiplier *)
  hang_cap : float;  (** max seconds charged for a hung run *)
}

val default_config : config
(** The discipline every instance measures with: 3..9 repeats to 5%
    stability, 4 retries with 1s/2x backoff, 60s hang cap. *)

type quality =
  | Exact  (** aggregated from enough real samples *)
  | Degraded of string
      (** fell back to the cost-model estimate (or a partial sample
          set); the payload says why *)

type measurement = {
  seconds : float;  (** aggregated time, capped at the adaptive timeout *)
  timed_out : bool;  (** aggregate exceeded [timeout_factor *. base] *)
  quality : quality;
  samples : int;  (** successful runs aggregated *)
  retries : int;  (** failures retried *)
  charged : float;
      (** simulated wall-clock consumed: run times (capped), hang time
          and backoff pauses — what the caller should add to its
          measurement budget *)
}

type t

val create : ?faults:Faults.t -> Evaluator.t -> t
(** Wrap an evaluator, measuring with {!default_config}; without
    [faults] the backend never fails but repeats still smooth
    measurement noise. *)

val fork : t -> t
(** Worker-local copy for parallel episode collection: a
    {!Evaluator.fork}ed evaluator (shared base cache, fresh jitter
    stream), a {!Faults.fork}ed injector and zeroed counters.
    The caller seeds the fork's noise/fault streams per episode and
    merges its counters back with {!absorb}. *)

val absorb : t -> measurements:int -> retries:int -> degraded:int -> unit
(** Add a fork's counter deltas to this instance (episode-merge step of
    the parallel trainer). *)

val evaluator : t -> Evaluator.t
val faults : t -> Faults.t option

val measure : t -> Sched_state.t -> measurement
(** Price one schedule state. Never raises: every failure mode ends in
    a retry, a timeout cap or a [Degraded] estimate. *)

val measurements : t -> int
(** Total {!measure} calls. *)

val degraded_count : t -> int
(** How many measurements were flagged [Degraded]. *)

val retry_count : t -> int
(** Total failure retries across all measurements. *)
