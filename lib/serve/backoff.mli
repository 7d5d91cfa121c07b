(** Capped exponential backoff with seeded jitter.

    Pure bookkeeping — no clocks, no sleeping. The supervisor asks
    {!next} for the delay before the n-th consecutive restart attempt
    and schedules the restart itself; {!reset} is called once the
    replica proves healthy again. Deterministic given the seed, so
    restart schedules replay exactly in tests and chaos runs. *)

type config = {
  base_s : float;  (** delay before the first retry; > 0 *)
  multiplier : float;  (** growth per attempt; >= 1 *)
  cap_s : float;  (** delays never exceed this (pre-jitter) *)
  jitter : float;
      (** symmetric relative jitter in [0, 1): each delay is scaled by
          a uniform factor in [1-jitter, 1+jitter] *)
}

val default_config : config
(** 100ms base, doubling, 2s cap, 10% jitter. *)

val validate : config -> (unit, string) result

type t

val create : ?seed:int -> config -> t
(** Raises [Invalid_argument] on an invalid config. *)

val next : t -> float
(** Delay in seconds before the next attempt; advances the attempt
    counter. *)

val reset : t -> unit
(** Back to the base delay — call when the replica is healthy again. *)

val max_delay : config -> float
(** The worst-case single delay: [cap_s * (1 + jitter)]. Chaos tests
    assert restart-to-healthy within a small multiple of this. *)
